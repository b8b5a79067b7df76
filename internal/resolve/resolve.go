// Package resolve is the static scope-resolution pass that runs after
// parsing. It annotates the AST in place with the slot layout of every
// lexical scope the interpreter will create at run time, and with a
// (depth, slot) coordinate on every identifier reference that can be
// resolved statically. The interpreter turns those annotations into flat
// slot-array environments with indexed access; anything left un-annotated
// falls back to the original map-based name walk, so resolution is purely
// an optimization and never changes observable semantics.
//
// The static scope tree mirrors the runtime environment chain exactly,
// one scope per environment the interpreter creates:
//
//	function body   one scope: `this` (slot 0) and `arguments` (slot 1)
//	                for non-arrows, then parameters, then the body's
//	                declarations
//	block           one scope per { ... } executed as a statement, try
//	                body, catch clause (including the catch binding) or
//	                finally clause
//	for header      one scope holding the init declarations; with a
//	                let/const init the interpreter copies it per iteration
//	for-in/of       one scope per iteration holding the declared loop
//	                variable (none when the head assigns an outer name)
//	switch          one scope shared by every case body
//
// Non-block branch bodies (`if (c) var x = 1`) execute directly in the
// surrounding environment, so their declarations are collected into the
// surrounding scope rather than a scope of their own.
//
// The global (program) scope is deliberately dynamic: host modules, the
// tracker's __t object, module shims and sloppy-mode implicit globals are
// injected there at arbitrary times, so top-level names always take the
// map path. A name that resolves nowhere (a global or a genuinely
// undefined name) gets a nil Ref.
package resolve

import "turnstile/internal/ast"

// Result reports resolver coverage for telemetry.
type Result struct {
	// Scopes is the number of static scopes created.
	Scopes int
	// Slots is the total number of slots allocated across all scopes.
	Slots int
	// Resolved counts identifier references and declarations annotated
	// with a slot coordinate.
	Resolved int
	// Dynamic counts references left on the map path (globals, implicit
	// globals, names declared only in dynamic scopes).
	Dynamic int
}

// scope is one node of the static scope tree. A nil *scope is the dynamic
// global scope: resolution stops there and the reference stays dynamic.
type scope struct {
	parent *scope
	info   *ast.ScopeInfo
}

type resolver struct {
	res Result
}

// Resolve annotates prog in place, marks it Resolved and returns coverage
// statistics. It is idempotent: re-resolving an already-annotated program recomputes the
// same annotations.
func Resolve(prog *ast.Program) *Result {
	r := &resolver{}
	r.stmts(prog.Body, nil)
	prog.Resolved = true
	return &r.res
}

func (r *resolver) newScope(parent *scope) *scope {
	r.res.Scopes++
	return &scope{parent: parent, info: &ast.ScopeInfo{}}
}

func (r *resolver) addSlot(sc *scope, name string) int {
	before := sc.info.NumSlots()
	i := sc.info.AddSlot(name)
	if sc.info.NumSlots() > before {
		r.res.Slots++
	}
	return i
}

// defineRef resolves a declaration executed in the current environment:
// it binds at depth 0 or not at all (a Define never walks outward).
func (r *resolver) defineRef(sc *scope, name string) *ast.VarRef {
	if sc != nil {
		if i, ok := sc.info.Slot(name); ok {
			r.res.Resolved++
			return &ast.VarRef{Depth: 0, Slot: i}
		}
	}
	r.res.Dynamic++
	return nil
}

// useRef resolves a reference by walking the static scope chain, one
// depth unit per runtime environment hop.
func (r *resolver) useRef(sc *scope, name string) *ast.VarRef {
	depth := 0
	for s := sc; s != nil; s = s.parent {
		if i, ok := s.info.Slot(name); ok {
			r.res.Resolved++
			return &ast.VarRef{Depth: depth, Slot: i}
		}
		depth++
	}
	r.res.Dynamic++
	return nil
}

// ---------------------------------------------------------------------------
// Declaration collection
//
// collect gathers every name a statement list will define into the
// environment it executes in: declarations in the list itself, plus
// declarations reached through non-block branch bodies, which the
// interpreter executes directly in the same environment.

func (r *resolver) collect(sc *scope, stmts []ast.Stmt) {
	for _, s := range stmts {
		r.collectStmt(sc, s, true)
	}
}

func (r *resolver) collectStmt(sc *scope, s ast.Stmt, direct bool) {
	switch x := s.(type) {
	case *ast.VarDecl:
		for _, d := range x.Decls {
			r.addSlot(sc, d.Name)
		}
	case *ast.FuncDecl:
		// hoisting is per statement list, so a FuncDecl appearing as a
		// bare branch body never executes its Define
		if direct {
			r.addSlot(sc, x.Name)
		}
	case *ast.ClassDecl:
		r.addSlot(sc, x.Name)
	case *ast.IfStmt:
		r.collectBranch(sc, x.Then)
		r.collectBranch(sc, x.Else)
	case *ast.WhileStmt:
		r.collectBranch(sc, x.Body)
	case *ast.DoWhileStmt:
		r.collectBranch(sc, x.Body)
	case *ast.ForInStmt:
		// with no head declaration the body runs in the surrounding
		// environment; a declared loop variable gets its own scope
		if !x.Decl {
			r.collectBranch(sc, x.Body)
		}
	}
}

// collectBranch collects from a branch/loop body unless it is a block
// (blocks own their environment and are collected separately).
func (r *resolver) collectBranch(sc *scope, s ast.Stmt) {
	if s == nil {
		return
	}
	if _, isBlock := s.(*ast.BlockStmt); isBlock {
		return
	}
	r.collectStmt(sc, s, false)
}

// ---------------------------------------------------------------------------
// Statements

func (r *resolver) stmts(list []ast.Stmt, sc *scope) {
	for _, s := range list {
		r.stmt(s, sc)
	}
}

func (r *resolver) block(b *ast.BlockStmt, sc *scope) {
	bs := r.newScope(sc)
	b.Scope = bs.info
	r.collect(bs, b.Body)
	r.stmts(b.Body, bs)
}

// branch resolves a branch/loop body: blocks get their own scope,
// anything else resolves in the surrounding scope (mirroring execBranch).
func (r *resolver) branch(s ast.Stmt, sc *scope) {
	if s == nil {
		return
	}
	if b, isBlock := s.(*ast.BlockStmt); isBlock {
		r.block(b, sc)
		return
	}
	r.stmt(s, sc)
}

func (r *resolver) stmt(s ast.Stmt, sc *scope) {
	switch x := s.(type) {
	case *ast.VarDecl:
		for _, d := range x.Decls {
			if d.Init != nil {
				r.expr(d.Init, sc)
			}
			d.Ref = r.defineRef(sc, d.Name)
		}
	case *ast.FuncDecl:
		x.Ref = r.defineRef(sc, x.Name)
		r.funcLit(x.Fn, sc)
	case *ast.ClassDecl:
		x.Ref = r.defineRef(sc, x.Name)
		if x.SuperClass != nil {
			r.expr(x.SuperClass, sc)
		}
		for _, m := range x.Methods {
			r.funcLit(m.Fn, sc)
		}
	case *ast.ExprStmt:
		r.expr(x.X, sc)
	case *ast.ReturnStmt:
		if x.Value != nil {
			r.expr(x.Value, sc)
		}
	case *ast.IfStmt:
		r.expr(x.Cond, sc)
		r.branch(x.Then, sc)
		r.branch(x.Else, sc)
	case *ast.BlockStmt:
		r.block(x, sc)
	case *ast.ForStmt:
		hs := r.newScope(sc)
		x.Scope = hs.info
		if vd, isDecl := x.Init.(*ast.VarDecl); isDecl {
			for _, d := range vd.Decls {
				r.addSlot(hs, d.Name)
			}
		}
		// a bare (non-block) body executes in the header environment
		r.collectBranch(hs, x.Body)
		if x.Init != nil {
			r.stmt(x.Init, hs)
		}
		if x.Cond != nil {
			r.expr(x.Cond, hs)
		}
		r.branch(x.Body, hs)
		if x.Post != nil {
			r.expr(x.Post, hs)
		}
	case *ast.ForInStmt:
		r.expr(x.Object, sc)
		if x.Decl {
			is := r.newScope(sc)
			x.Scope = is.info
			slot := r.addSlot(is, x.Name)
			x.Ref = &ast.VarRef{Depth: 0, Slot: slot}
			r.res.Resolved++
			r.collectBranch(is, x.Body)
			r.branch(x.Body, is)
		} else {
			x.Ref = r.useRef(sc, x.Name)
			r.branch(x.Body, sc)
		}
	case *ast.WhileStmt:
		r.expr(x.Cond, sc)
		r.branch(x.Body, sc)
	case *ast.DoWhileStmt:
		r.branch(x.Body, sc)
		r.expr(x.Cond, sc)
	case *ast.ThrowStmt:
		r.expr(x.Value, sc)
	case *ast.TryStmt:
		r.block(x.Body, sc)
		if x.Catch != nil {
			cs := r.newScope(sc)
			x.Catch.Scope = cs.info
			if x.CatchVar != "" {
				slot := r.addSlot(cs, x.CatchVar)
				x.CatchRef = &ast.VarRef{Depth: 0, Slot: slot}
				r.res.Resolved++
			}
			r.collect(cs, x.Catch.Body)
			r.stmts(x.Catch.Body, cs)
		}
		if x.Finally != nil {
			r.block(x.Finally, sc)
		}
	case *ast.SwitchStmt:
		r.expr(x.Disc, sc)
		ss := r.newScope(sc)
		x.Scope = ss.info
		for _, cs := range x.Cases {
			r.collect(ss, cs.Body)
		}
		for _, cs := range x.Cases {
			if cs.Test != nil {
				r.expr(cs.Test, ss)
			}
			r.stmts(cs.Body, ss)
		}
	}
	// Break/Continue/Empty: nothing to resolve
}

// ---------------------------------------------------------------------------
// Expressions

func (r *resolver) funcLit(fn *ast.FuncLit, sc *scope) {
	fs := r.newScope(sc)
	fn.Scope = fs.info
	if !fn.Arrow {
		// fixed layout relied on by the interpreter's call fast path
		r.addSlot(fs, "this")      // slot 0
		r.addSlot(fs, "arguments") // slot 1
	}
	for _, p := range fn.Params {
		slot := r.addSlot(fs, p.Name)
		p.Ref = &ast.VarRef{Depth: 0, Slot: slot}
		r.res.Resolved++
	}
	if fn.Body != nil {
		r.collect(fs, fn.Body.Body)
		r.stmts(fn.Body.Body, fs)
	}
	if fn.ExprRet != nil {
		r.expr(fn.ExprRet, fs)
	}
}

func (r *resolver) exprs(list []ast.Expr, sc *scope) {
	for _, e := range list {
		r.expr(e, sc)
	}
}

func (r *resolver) expr(e ast.Expr, sc *scope) {
	switch x := e.(type) {
	case *ast.Ident:
		x.Ref = r.useRef(sc, x.Name)
	case *ast.ThisExpr:
		x.Ref = r.useRef(sc, "this")
	case *ast.TemplateLit:
		r.exprs(x.Exprs, sc)
	case *ast.ArrayLit:
		r.exprs(x.Elems, sc)
	case *ast.ObjectLit:
		for _, p := range x.Props {
			if p.Computed && p.KeyExpr != nil {
				r.expr(p.KeyExpr, sc)
			}
			if p.Value != nil {
				r.expr(p.Value, sc)
			}
		}
	case *ast.FuncLit:
		r.funcLit(x, sc)
	case *ast.CallExpr:
		r.expr(x.Callee, sc)
		r.exprs(x.Args, sc)
	case *ast.NewExpr:
		r.expr(x.Callee, sc)
		r.exprs(x.Args, sc)
	case *ast.MemberExpr:
		r.expr(x.Object, sc)
		if x.Computed {
			r.expr(x.Index, sc)
		}
	case *ast.BinaryExpr:
		r.expr(x.Left, sc)
		r.expr(x.Right, sc)
	case *ast.LogicalExpr:
		r.expr(x.Left, sc)
		r.expr(x.Right, sc)
	case *ast.UnaryExpr:
		r.expr(x.X, sc)
	case *ast.UpdateExpr:
		r.expr(x.X, sc)
	case *ast.AssignExpr:
		r.expr(x.Target, sc)
		r.expr(x.Value, sc)
	case *ast.CondExpr:
		r.expr(x.Cond, sc)
		r.expr(x.Then, sc)
		r.expr(x.Else, sc)
	case *ast.SeqExpr:
		r.exprs(x.Exprs, sc)
	case *ast.AwaitExpr:
		r.expr(x.X, sc)
	case *ast.SpreadExpr:
		r.expr(x.X, sc)
	}
	// literals: nothing to resolve
}
