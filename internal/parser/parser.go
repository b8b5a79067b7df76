// Package parser builds MiniJS ASTs from source text.
//
// The grammar is the ES6 subset described in the paper (§4.5): classes,
// arrow functions, spread, template literals, async/await and Promise
// construction, plus all the statement and expression forms the corpus
// applications use. Automatic semicolon insertion follows the pragmatic
// rule: a statement may end at a newline, '}' or EOF.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"turnstile/internal/ast"
	"turnstile/internal/guard"
	"turnstile/internal/lexer"
)

// Error is a parse error with position information.
type Error struct {
	File string
	Msg  string
	Line int
	Col  int
}

func (e *Error) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

type parser struct {
	file   string
	toks   []lexer.Token
	pos    int
	nextID int
	depth  int
	// closeOf maps the index of each '(' token to the index of its
	// matching ')', or -1 when it is unclosed; built on first use by
	// matchParen.
	closeOf []int32
}

// maxParseDepth bounds grammar-level nesting (statements and expressions).
// The recursive-descent grammar burns a bounded number of Go frames per
// level, so this cap keeps the parser far from the unrecoverable Go stack
// limit while admitting any program a human (or the instrumentor) writes.
const maxParseDepth = 10_000

// enter charges one grammar nesting level; leave releases it. Called at
// the two recursion hubs every nesting level passes through — statement()
// and unaryExpr() — so pathological inputs (deep literal nesting, long
// unary chains, deeply parenthesized expressions) abort with a typed
// *guard.PipelineError instead of overflowing the Go stack, which recover
// cannot catch.
func (p *parser) enter() {
	p.depth++
	if p.depth > maxParseDepth {
		t := p.cur()
		panic(parseAbort{&guard.PipelineError{
			Stage: "parse",
			Pos:   fmt.Sprintf("%s:%d:%d", p.file, t.Line, t.Col),
			Cause: fmt.Errorf("nesting exceeds %d levels", maxParseDepth),
		}})
	}
}

func (p *parser) leave() { p.depth-- }

// tokenBufs recycles token buffers across Parse calls. The AST keeps only
// token texts, which point into the source or into lexer constants, never
// into the buffer, so a buffer is free again once Parse returns.
var tokenBufs = sync.Pool{New: func() any { return new([]lexer.Token) }}

// Parse parses src and returns the program. file is used in error messages
// and recorded on the returned Program.
func Parse(file, src string) (*ast.Program, error) {
	buf := tokenBufs.Get().(*[]lexer.Token)
	toks, err := lexer.TokenizeInto(*buf, src)
	defer func() {
		clear(toks) // drop references into src before pooling
		*buf = toks[:0]
		tokenBufs.Put(buf)
	}()
	if err != nil {
		if le, ok := err.(*lexer.Error); ok {
			return nil, &Error{File: file, Msg: le.Msg, Line: le.Line, Col: le.Col}
		}
		return nil, err
	}
	p := &parser{file: file, toks: toks, nextID: 1}
	prog := &ast.Program{File: file}
	body, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	prog.Body = body
	prog.MaxID = p.nextID
	return prog, nil
}

// MustParse is Parse that panics on error; for tests and builtin sources.
func MustParse(file, src string) *ast.Program {
	prog, err := Parse(file, src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parseAbort struct{ err error }

func (p *parser) parseProgram() (body []ast.Stmt, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pa, ok := r.(parseAbort); ok {
				err = pa.err
				return
			}
			panic(r)
		}
	}()
	for !p.at(lexer.EOF, "") {
		body = append(body, p.statement())
	}
	return body, nil
}

func (p *parser) fail(format string, args ...any) {
	t := p.cur()
	panic(parseAbort{&Error{File: p.file, Msg: fmt.Sprintf(format, args...), Line: int(t.Line), Col: int(t.Col)}})
}

func (p *parser) cur() lexer.Token  { return p.toks[p.pos] }
func (p *parser) next() lexer.Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(k lexer.Kind, text string) bool {
	t := p.cur()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *parser) atPunct(text string) bool   { return p.at(lexer.Punct, text) }
func (p *parser) atKeyword(text string) bool { return p.at(lexer.Keyword, text) }

func (p *parser) eat(k lexer.Kind, text string) bool {
	if p.at(k, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k lexer.Kind, text string) lexer.Token {
	if !p.at(k, text) {
		p.fail("expected %q, found %q", text, p.cur().Text)
	}
	return p.next()
}

func (p *parser) loc() ast.Pos {
	t := p.cur()
	return ast.Pos{Line: int(t.Line), Col: int(t.Col)}
}

func (p *parser) id() int { id := p.nextID; p.nextID++; return id }

// base allocates position+id bookkeeping at the current token.
func (p *parser) base() ast.NodeInfo { return ast.NodeInfo{Loc: p.loc(), ID: p.id()} }

// baseAt allocates bookkeeping anchored at an already-parsed node's position.
func (p *parser) baseAt(pos ast.Pos) ast.NodeInfo { return ast.NodeInfo{Loc: pos, ID: p.id()} }

// semi consumes a statement terminator: an explicit ';', or accepts a soft
// boundary (newline before next token, '}' or EOF).
func (p *parser) semi() {
	if p.eat(lexer.Punct, ";") {
		return
	}
	t := p.cur()
	if t.Kind == lexer.EOF || (t.Kind == lexer.Punct && t.Text == "}") || t.NLBefor {
		return
	}
	p.fail("expected ';' or newline, found %q", t.Text)
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) statement() ast.Stmt {
	p.enter()
	defer p.leave()
	t := p.cur()
	switch {
	case t.Kind == lexer.Punct && t.Text == "{":
		return p.blockStmt()
	case t.Kind == lexer.Punct && t.Text == ";":
		b := p.base()
		p.next()
		return &ast.EmptyStmt{NodeInfo: b}
	case t.Kind == lexer.Keyword:
		switch t.Text {
		case "var", "let", "const":
			s := p.varDecl()
			p.semi()
			return s
		case "function":
			return p.funcDecl(false)
		case "async":
			// "async function" declaration; otherwise fall through to
			// expression statement (async arrow).
			if p.toks[p.pos+1].Kind == lexer.Keyword && p.toks[p.pos+1].Text == "function" {
				p.next() // async
				return p.funcDecl(true)
			}
		case "return":
			b := p.base()
			p.next()
			var val ast.Expr
			if !p.atPunct(";") && !p.atPunct("}") && p.cur().Kind != lexer.EOF && !p.cur().NLBefor {
				val = p.expression()
			}
			p.semi()
			return &ast.ReturnStmt{NodeInfo: b, Value: val}
		case "if":
			return p.ifStmt()
		case "for":
			return p.forStmt()
		case "while":
			b := p.base()
			p.next()
			p.expect(lexer.Punct, "(")
			cond := p.expression()
			p.expect(lexer.Punct, ")")
			body := p.statement()
			return &ast.WhileStmt{NodeInfo: b, Cond: cond, Body: body}
		case "do":
			b := p.base()
			p.next()
			body := p.statement()
			p.expect(lexer.Keyword, "while")
			p.expect(lexer.Punct, "(")
			cond := p.expression()
			p.expect(lexer.Punct, ")")
			p.semi()
			return &ast.DoWhileStmt{NodeInfo: b, Body: body, Cond: cond}
		case "break":
			b := p.base()
			p.next()
			p.semi()
			return &ast.BreakStmt{NodeInfo: b}
		case "continue":
			b := p.base()
			p.next()
			p.semi()
			return &ast.ContinueStmt{NodeInfo: b}
		case "throw":
			b := p.base()
			p.next()
			val := p.expression()
			p.semi()
			return &ast.ThrowStmt{NodeInfo: b, Value: val}
		case "try":
			return p.tryStmt()
		case "switch":
			return p.switchStmt()
		case "class":
			return p.classDecl()
		}
	}
	b := p.base()
	x := p.expression()
	p.semi()
	return &ast.ExprStmt{NodeInfo: b, X: x}
}

func (p *parser) blockStmt() *ast.BlockStmt {
	b := p.base()
	p.expect(lexer.Punct, "{")
	var body []ast.Stmt
	for !p.atPunct("}") {
		if p.cur().Kind == lexer.EOF {
			p.fail("unexpected EOF in block")
		}
		body = append(body, p.statement())
	}
	p.expect(lexer.Punct, "}")
	return &ast.BlockStmt{NodeInfo: b, Body: body}
}

func (p *parser) varDecl() *ast.VarDecl {
	b := p.base()
	kw := p.next().Text
	var kind ast.DeclKind
	switch kw {
	case "var":
		kind = ast.DeclVar
	case "let":
		kind = ast.DeclLet
	case "const":
		kind = ast.DeclConst
	}
	var decls []*ast.Declarator
	for {
		db := p.base()
		name := p.identName()
		var init ast.Expr
		if p.eat(lexer.Punct, "=") {
			init = p.assignExpr()
		}
		decls = append(decls, &ast.Declarator{NodeInfo: db, Name: name, Init: init})
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	return &ast.VarDecl{NodeInfo: b, Kind: kind, Decls: decls}
}

func (p *parser) identName() string {
	t := p.cur()
	if t.Kind != lexer.Ident {
		// allow contextual keywords as identifiers where unambiguous
		if t.Kind == lexer.Keyword && (t.Text == "of" || t.Text == "async" || t.Text == "static" || t.Text == "undefined") {
			p.next()
			return t.Text
		}
		p.fail("expected identifier, found %q", t.Text)
	}
	p.next()
	return t.Text
}

func (p *parser) funcDecl(async bool) *ast.FuncDecl {
	b := p.base()
	p.expect(lexer.Keyword, "function")
	name := p.identName()
	fn := p.funcRest(name, async)
	return &ast.FuncDecl{NodeInfo: b, Name: name, Fn: fn}
}

// funcRest parses "(params) { body }" after the function keyword and name.
func (p *parser) funcRest(name string, async bool) *ast.FuncLit {
	b := p.base()
	params := p.paramList()
	body := p.blockStmt()
	return &ast.FuncLit{NodeInfo: b, Name: name, Params: params, Body: body, Async: async}
}

func (p *parser) paramList() []*ast.Param {
	p.expect(lexer.Punct, "(")
	var params []*ast.Param
	for !p.atPunct(")") {
		pb := p.base()
		rest := p.eat(lexer.Punct, "...")
		name := p.identName()
		params = append(params, &ast.Param{NodeInfo: pb, Name: name, Rest: rest})
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, ")")
	return params
}

func (p *parser) ifStmt() *ast.IfStmt {
	b := p.base()
	p.expect(lexer.Keyword, "if")
	p.expect(lexer.Punct, "(")
	cond := p.expression()
	p.expect(lexer.Punct, ")")
	then := p.statement()
	var els ast.Stmt
	if p.eat(lexer.Keyword, "else") {
		els = p.statement()
	}
	return &ast.IfStmt{NodeInfo: b, Cond: cond, Then: then, Else: els}
}

func (p *parser) forStmt() ast.Stmt {
	b := p.base()
	p.expect(lexer.Keyword, "for")
	p.expect(lexer.Punct, "(")

	// Distinguish for-in / for-of from classic for.
	if p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const") {
		declKindTok := p.cur().Text
		// lookahead: decl-kind ident (in|of)
		if p.toks[p.pos+1].Kind == lexer.Ident &&
			p.toks[p.pos+2].Kind == lexer.Keyword &&
			(p.toks[p.pos+2].Text == "in" || p.toks[p.pos+2].Text == "of") {
			p.next() // decl kind
			name := p.identName()
			kindTok := p.next().Text
			obj := p.expression()
			p.expect(lexer.Punct, ")")
			body := p.statement()
			kind := ast.ForIn
			if kindTok == "of" {
				kind = ast.ForOf
			}
			dk := ast.DeclVar
			switch declKindTok {
			case "let":
				dk = ast.DeclLet
			case "const":
				dk = ast.DeclConst
			}
			return &ast.ForInStmt{NodeInfo: b, Kind: kind, DeclKind: dk, Decl: true, Name: name, Object: obj, Body: body}
		}
	} else if p.cur().Kind == lexer.Ident &&
		p.toks[p.pos+1].Kind == lexer.Keyword &&
		(p.toks[p.pos+1].Text == "in" || p.toks[p.pos+1].Text == "of") {
		name := p.identName()
		kindTok := p.next().Text
		obj := p.expression()
		p.expect(lexer.Punct, ")")
		body := p.statement()
		kind := ast.ForIn
		if kindTok == "of" {
			kind = ast.ForOf
		}
		return &ast.ForInStmt{NodeInfo: b, Kind: kind, Decl: false, Name: name, Object: obj, Body: body}
	}

	var init ast.Stmt
	if !p.atPunct(";") {
		if p.atKeyword("var") || p.atKeyword("let") || p.atKeyword("const") {
			init = p.varDecl()
		} else {
			ib := p.base()
			init = &ast.ExprStmt{NodeInfo: ib, X: p.expression()}
		}
	}
	p.expect(lexer.Punct, ";")
	var cond ast.Expr
	if !p.atPunct(";") {
		cond = p.expression()
	}
	p.expect(lexer.Punct, ";")
	var post ast.Expr
	if !p.atPunct(")") {
		post = p.expression()
	}
	p.expect(lexer.Punct, ")")
	body := p.statement()
	return &ast.ForStmt{NodeInfo: b, Init: init, Cond: cond, Post: post, Body: body}
}

func (p *parser) tryStmt() *ast.TryStmt {
	b := p.base()
	p.expect(lexer.Keyword, "try")
	body := p.blockStmt()
	out := &ast.TryStmt{NodeInfo: b, Body: body}
	if p.eat(lexer.Keyword, "catch") {
		if p.eat(lexer.Punct, "(") {
			out.CatchVar = p.identName()
			p.expect(lexer.Punct, ")")
		}
		out.Catch = p.blockStmt()
	}
	if p.eat(lexer.Keyword, "finally") {
		out.Finally = p.blockStmt()
	}
	if out.Catch == nil && out.Finally == nil {
		p.fail("try statement requires catch or finally")
	}
	return out
}

func (p *parser) switchStmt() *ast.SwitchStmt {
	b := p.base()
	p.expect(lexer.Keyword, "switch")
	p.expect(lexer.Punct, "(")
	disc := p.expression()
	p.expect(lexer.Punct, ")")
	p.expect(lexer.Punct, "{")
	var cases []*ast.SwitchCase
	for !p.atPunct("}") {
		cb := p.base()
		var test ast.Expr
		if p.eat(lexer.Keyword, "case") {
			test = p.expression()
		} else if !p.eat(lexer.Keyword, "default") {
			p.fail("expected case or default in switch")
		}
		p.expect(lexer.Punct, ":")
		var body []ast.Stmt
		for !p.atPunct("}") && !p.atKeyword("case") && !p.atKeyword("default") {
			body = append(body, p.statement())
		}
		cases = append(cases, &ast.SwitchCase{NodeInfo: cb, Test: test, Body: body})
	}
	p.expect(lexer.Punct, "}")
	return &ast.SwitchStmt{NodeInfo: b, Disc: disc, Cases: cases}
}

func (p *parser) classDecl() *ast.ClassDecl {
	b := p.base()
	p.expect(lexer.Keyword, "class")
	name := p.identName()
	var super ast.Expr
	if p.eat(lexer.Keyword, "extends") {
		super = p.lhsExpr()
	}
	p.expect(lexer.Punct, "{")
	var methods []*ast.ClassMethod
	for !p.atPunct("}") {
		if p.eat(lexer.Punct, ";") {
			continue
		}
		mb := p.base()
		static := false
		if p.atKeyword("static") && !p.punctFollows(1, "(") {
			p.next()
			static = true
		}
		async := false
		if p.atKeyword("async") && !p.punctFollows(1, "(") {
			p.next()
			async = true
		}
		mname := p.methodName()
		fn := p.funcRest(mname, async)
		methods = append(methods, &ast.ClassMethod{NodeInfo: mb, Name: mname, Static: static, Fn: fn})
	}
	p.expect(lexer.Punct, "}")
	return &ast.ClassDecl{NodeInfo: b, Name: name, SuperClass: super, Methods: methods}
}

// punctFollows reports whether the token `off` ahead is the given punct —
// used to disambiguate method names that are contextual keywords, e.g. a
// method literally named "static".
func (p *parser) punctFollows(off int, text string) bool {
	t := p.toks[p.pos+off]
	return t.Kind == lexer.Punct && t.Text == text
}

func (p *parser) methodName() string {
	t := p.cur()
	if t.Kind == lexer.Ident || t.Kind == lexer.Keyword {
		p.next()
		return t.Text
	}
	if t.Kind == lexer.String {
		p.next()
		return t.Text
	}
	p.fail("expected method name, found %q", t.Text)
	return ""
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) expression() ast.Expr {
	x := p.assignExpr()
	if p.atPunct(",") {
		b := p.baseAt(x.Pos())
		exprs := []ast.Expr{x}
		for p.eat(lexer.Punct, ",") {
			exprs = append(exprs, p.assignExpr())
		}
		return &ast.SeqExpr{NodeInfo: b, Exprs: exprs}
	}
	return x
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "**=": true, "<<=": true, ">>=": true,
	"&&=": true, "||=": true, "??=": true,
}

func (p *parser) assignExpr() ast.Expr {
	// arrow functions need arbitrary lookahead over a parenthesized
	// parameter list; detect them first.
	if arrow := p.tryArrow(); arrow != nil {
		return arrow
	}
	left := p.condExpr()
	t := p.cur()
	if t.Kind == lexer.Punct && assignOps[t.Text] {
		switch left.(type) {
		case *ast.Ident, *ast.MemberExpr:
		default:
			p.fail("invalid assignment target")
		}
		b := p.baseAt(left.Pos())
		op := p.next().Text
		val := p.assignExpr()
		return &ast.AssignExpr{NodeInfo: b, Op: op, Target: left, Value: val}
	}
	return left
}

// matchParen returns the index of the ')' matching the '(' at token index
// i, or -1 when it is unclosed. The table is built in one pass on first
// use, so the arrow lookahead at every nesting level of a deeply
// parenthesized expression stays linear in the token count instead of
// rescanning to the closing paren each time.
func (p *parser) matchParen(i int) int {
	if p.closeOf == nil {
		p.closeOf = make([]int32, len(p.toks))
		var open []int32
		for j, t := range p.toks {
			p.closeOf[j] = -1
			if t.Kind != lexer.Punct {
				continue
			}
			switch t.Text {
			case "(":
				open = append(open, int32(j))
			case ")":
				if n := len(open); n > 0 {
					p.closeOf[open[n-1]] = int32(j)
					open = open[:n-1]
				}
			}
		}
	}
	return int(p.closeOf[i])
}

// tryArrow attempts to parse an arrow function at the current position.
// Returns nil (with position restored) if the lookahead does not match.
func (p *parser) tryArrow() ast.Expr {
	start := p.pos
	startID := p.nextID
	b := p.base()
	async := false
	if p.atKeyword("async") && !p.toks[p.pos+1].NLBefor &&
		(p.toks[p.pos+1].Kind == lexer.Ident || p.punctFollows(1, "(")) {
		// could be `async x =>` or `async (…) =>`; verified below.
		p.next()
		async = true
	}
	var params []*ast.Param
	switch {
	case p.cur().Kind == lexer.Ident:
		pb := p.base()
		name := p.next().Text
		if !p.atPunct("=>") {
			p.pos, p.nextID = start, startID
			return nil
		}
		params = []*ast.Param{{NodeInfo: pb, Name: name}}
	case p.atPunct("("):
		// an arrow iff '=>' follows the matching ')'
		i := p.matchParen(p.pos)
		if i < 0 || i+1 >= len(p.toks) || p.toks[i+1].Kind != lexer.Punct || p.toks[i+1].Text != "=>" {
			p.pos, p.nextID = start, startID
			return nil
		}
		params = p.paramList()
	default:
		p.pos, p.nextID = start, startID
		return nil
	}
	p.expect(lexer.Punct, "=>")
	fn := &ast.FuncLit{NodeInfo: b, Params: params, Arrow: true, Async: async}
	if p.atPunct("{") {
		fn.Body = p.blockStmt()
	} else {
		fn.ExprRet = p.assignExpr()
	}
	return fn
}

func (p *parser) condExpr() ast.Expr {
	cond := p.binaryExpr(0)
	if p.atPunct("?") && !p.atPunct("?.") {
		b := p.baseAt(cond.Pos())
		p.next()
		then := p.assignExpr()
		p.expect(lexer.Punct, ":")
		els := p.assignExpr()
		return &ast.CondExpr{NodeInfo: b, Cond: cond, Then: then, Else: els}
	}
	return cond
}

// binary operator precedence, higher binds tighter.
var binPrec = map[string]int{
	"??": 1, "||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7, "instanceof": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
	"**": 11,
}

func isLogical(op string) bool { return op == "&&" || op == "||" || op == "??" }

func (p *parser) binaryExpr(minPrec int) ast.Expr {
	left := p.unaryExpr()
	for {
		t := p.cur()
		var op string
		if t.Kind == lexer.Punct {
			op = t.Text
		} else if t.Kind == lexer.Keyword && (t.Text == "in" || t.Text == "instanceof") {
			op = t.Text
		} else {
			return left
		}
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return left
		}
		b := p.baseAt(left.Pos())
		p.next()
		// ** is right-associative; everything else left-associative.
		nextMin := prec + 1
		if op == "**" {
			nextMin = prec
		}
		right := p.binaryExpr(nextMin)
		if isLogical(op) {
			left = &ast.LogicalExpr{NodeInfo: b, Op: op, Left: left, Right: right}
		} else {
			left = &ast.BinaryExpr{NodeInfo: b, Op: op, Left: left, Right: right}
		}
	}
}

func (p *parser) unaryExpr() ast.Expr {
	// Every expression nesting level passes through here exactly once
	// (primary's bracketed forms re-enter via expression/assignExpr), so
	// this single charge bounds expression recursion as a whole.
	p.enter()
	defer p.leave()
	t := p.cur()
	if t.Kind == lexer.Punct && (t.Text == "!" || t.Text == "-" || t.Text == "+" || t.Text == "~") {
		b := p.base()
		op := p.next().Text
		x := p.unaryExpr()
		return &ast.UnaryExpr{NodeInfo: b, Op: op, X: x}
	}
	if t.Kind == lexer.Punct && (t.Text == "++" || t.Text == "--") {
		b := p.base()
		op := p.next().Text
		x := p.unaryExpr()
		return &ast.UpdateExpr{NodeInfo: b, Op: op, Prefix: true, X: x}
	}
	if t.Kind == lexer.Keyword {
		switch t.Text {
		case "typeof", "delete", "void":
			b := p.base()
			op := p.next().Text
			x := p.unaryExpr()
			return &ast.UnaryExpr{NodeInfo: b, Op: op, X: x}
		case "await":
			b := p.base()
			p.next()
			x := p.unaryExpr()
			return &ast.AwaitExpr{NodeInfo: b, X: x}
		}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() ast.Expr {
	x := p.lhsExpr()
	t := p.cur()
	if t.Kind == lexer.Punct && (t.Text == "++" || t.Text == "--") && !t.NLBefor {
		b := p.baseAt(x.Pos())
		op := p.next().Text
		return &ast.UpdateExpr{NodeInfo: b, Op: op, Prefix: false, X: x}
	}
	return x
}

// lhsExpr parses primary expressions followed by call/member suffixes.
func (p *parser) lhsExpr() ast.Expr {
	var x ast.Expr
	if p.atKeyword("new") {
		b := p.base()
		p.next()
		callee := p.primaryWithMembers()
		var args []ast.Expr
		if p.atPunct("(") {
			args = p.argList()
		}
		x = &ast.NewExpr{NodeInfo: b, Callee: callee, Args: args}
	} else {
		x = p.primary()
	}
	return p.memberSuffixes(x)
}

// primaryWithMembers parses a primary expression plus only member accesses
// (no calls), used for `new a.b.C(...)`.
func (p *parser) primaryWithMembers() ast.Expr {
	x := p.primary()
	for p.atPunct(".") {
		b := p.baseAt(x.Pos())
		p.next()
		name := p.propertyName()
		x = &ast.MemberExpr{NodeInfo: b, Object: x, Property: name}
	}
	return x
}

func (p *parser) memberSuffixes(x ast.Expr) ast.Expr {
	for {
		switch {
		case p.atPunct("."):
			b := p.baseAt(x.Pos())
			p.next()
			name := p.propertyName()
			x = &ast.MemberExpr{NodeInfo: b, Object: x, Property: name}
		case p.atPunct("?."):
			// optional chaining is treated as plain member access for
			// dataflow purposes (MiniJS objects tolerate missing props).
			b := p.baseAt(x.Pos())
			p.next()
			name := p.propertyName()
			x = &ast.MemberExpr{NodeInfo: b, Object: x, Property: name}
		case p.atPunct("["):
			b := p.baseAt(x.Pos())
			p.next()
			idx := p.expression()
			p.expect(lexer.Punct, "]")
			x = &ast.MemberExpr{NodeInfo: b, Object: x, Index: idx, Computed: true}
		case p.atPunct("("):
			b := p.baseAt(x.Pos())
			args := p.argList()
			x = &ast.CallExpr{NodeInfo: b, Callee: x, Args: args}
		default:
			return x
		}
	}
}

// propertyName parses the name after '.'; keywords are valid property names.
func (p *parser) propertyName() string {
	t := p.cur()
	if t.Kind == lexer.Ident || t.Kind == lexer.Keyword {
		p.next()
		return t.Text
	}
	p.fail("expected property name, found %q", t.Text)
	return ""
}

func (p *parser) argList() []ast.Expr {
	p.expect(lexer.Punct, "(")
	var args []ast.Expr
	for !p.atPunct(")") {
		if p.atPunct("...") {
			b := p.base()
			p.next()
			args = append(args, &ast.SpreadExpr{NodeInfo: b, X: p.assignExpr()})
		} else {
			args = append(args, p.assignExpr())
		}
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, ")")
	return args
}

func (p *parser) primary() ast.Expr {
	t := p.cur()
	b := p.base()
	switch t.Kind {
	case lexer.Number:
		p.next()
		v, err := parseNumber(t.Text)
		if err != nil {
			p.fail("bad number literal %q", t.Text)
		}
		return &ast.NumberLit{NodeInfo: b, Value: v}
	case lexer.String:
		p.next()
		return &ast.StringLit{NodeInfo: b, Value: t.Text}
	case lexer.TemplateFull:
		p.next()
		return &ast.TemplateLit{NodeInfo: b, Quasis: []string{t.Text}}
	case lexer.TemplateStart:
		return p.templateLit()
	case lexer.Ident:
		p.next()
		return &ast.Ident{NodeInfo: b, Name: t.Text}
	case lexer.Keyword:
		switch t.Text {
		case "true", "false":
			p.next()
			return &ast.BoolLit{NodeInfo: b, Value: t.Text == "true"}
		case "null":
			p.next()
			return &ast.NullLit{NodeInfo: b}
		case "undefined":
			p.next()
			return &ast.UndefinedLit{NodeInfo: b}
		case "this":
			p.next()
			return &ast.ThisExpr{NodeInfo: b}
		case "function":
			p.next()
			name := ""
			if p.cur().Kind == lexer.Ident {
				name = p.next().Text
			}
			return p.funcRest(name, false)
		case "async":
			if p.toks[p.pos+1].Kind == lexer.Keyword && p.toks[p.pos+1].Text == "function" {
				p.next()
				p.next()
				name := ""
				if p.cur().Kind == lexer.Ident {
					name = p.next().Text
				}
				return p.funcRest(name, true)
			}
			// `async` used as a plain identifier
			p.next()
			return &ast.Ident{NodeInfo: b, Name: "async"}
		case "of", "static", "undefined2":
			p.next()
			return &ast.Ident{NodeInfo: b, Name: t.Text}
		case "class":
			p.fail("class expressions are not supported; use a class declaration")
		}
	case lexer.Punct:
		switch t.Text {
		case "(":
			p.next()
			x := p.expression()
			p.expect(lexer.Punct, ")")
			return x
		case "[":
			return p.arrayLit()
		case "{":
			return p.objectLit()
		}
	}
	p.fail("unexpected token %q", t.Text)
	return nil
}

func (p *parser) templateLit() ast.Expr {
	b := p.base()
	start := p.expect(lexer.TemplateStart, "")
	quasis := []string{start.Text}
	var exprs []ast.Expr
	for {
		exprs = append(exprs, p.expression())
		t := p.cur()
		switch t.Kind {
		case lexer.TemplateMid:
			p.next()
			quasis = append(quasis, t.Text)
		case lexer.TemplateEnd:
			p.next()
			quasis = append(quasis, t.Text)
			return &ast.TemplateLit{NodeInfo: b, Quasis: quasis, Exprs: exprs}
		default:
			p.fail("expected template continuation, found %q", t.Text)
		}
	}
}

func (p *parser) arrayLit() ast.Expr {
	b := p.base()
	p.expect(lexer.Punct, "[")
	var elems []ast.Expr
	for !p.atPunct("]") {
		if p.atPunct("...") {
			sb := p.base()
			p.next()
			elems = append(elems, &ast.SpreadExpr{NodeInfo: sb, X: p.assignExpr()})
		} else {
			elems = append(elems, p.assignExpr())
		}
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, "]")
	return &ast.ArrayLit{NodeInfo: b, Elems: elems}
}

func (p *parser) objectLit() ast.Expr {
	b := p.base()
	p.expect(lexer.Punct, "{")
	var props []*ast.Property
	for !p.atPunct("}") {
		pb := p.base()
		switch {
		case p.atPunct("..."):
			p.next()
			props = append(props, &ast.Property{NodeInfo: pb, Spread: true, Value: p.assignExpr()})
		case p.atPunct("["):
			p.next()
			keyExpr := p.assignExpr()
			p.expect(lexer.Punct, "]")
			p.expect(lexer.Punct, ":")
			props = append(props, &ast.Property{NodeInfo: pb, KeyExpr: keyExpr, Computed: true, Value: p.assignExpr()})
		default:
			key := p.objectKey()
			switch {
			case p.atPunct("("):
				// shorthand method: { foo(a) { ... } }
				fn := p.funcRest(key, false)
				props = append(props, &ast.Property{NodeInfo: pb, Key: key, Value: fn})
			case p.eat(lexer.Punct, ":"):
				props = append(props, &ast.Property{NodeInfo: pb, Key: key, Value: p.assignExpr()})
			default:
				// shorthand { x } — only valid for identifier keys
				if !isIdentName(key) {
					p.fail("shorthand property requires an identifier, got %q", key)
				}
				ib := p.baseAt(pb.Loc)
				props = append(props, &ast.Property{NodeInfo: pb, Key: key, Value: &ast.Ident{NodeInfo: ib, Name: key}})
			}
		}
		if !p.eat(lexer.Punct, ",") {
			break
		}
	}
	p.expect(lexer.Punct, "}")
	return &ast.ObjectLit{NodeInfo: b, Props: props}
}

func (p *parser) objectKey() string {
	t := p.cur()
	switch t.Kind {
	case lexer.Ident, lexer.Keyword, lexer.String, lexer.Number:
		p.next()
		return t.Text
	}
	p.fail("expected property key, found %q", t.Text)
	return ""
}

// isIdentName reports whether s is a valid identifier.
func isIdentName(s string) bool {
	if s == "" || lexer.IsKeyword(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && !(i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

func parseNumber(text string) (float64, error) {
	if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
		n, err := strconv.ParseUint(text[2:], 16, 64)
		return float64(n), err
	}
	return strconv.ParseFloat(text, 64)
}
