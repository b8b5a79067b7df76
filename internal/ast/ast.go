// Package ast defines the abstract syntax tree for MiniJS, the ES6-subset
// JavaScript dialect used throughout the Turnstile reproduction.
//
// Every node carries a source location and a unique ID assigned by the
// parser. IDs give the static analyzers and the instrumentor a stable way
// to refer to syntactic elements (the paper's "objects" in IFC-policy
// injection points are AST nodes).
package ast

import "fmt"

// Pos is a position in a source file.
type Pos struct {
	Line int // 1-based
	Col  int // 1-based, in bytes
}

// String returns "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Valid reports whether the position has been set.
func (p Pos) Valid() bool { return p.Line > 0 }

// Before reports whether p is strictly before q.
func (p Pos) Before(q Pos) bool {
	return p.Line < q.Line || (p.Line == q.Line && p.Col < q.Col)
}

// Node is implemented by every AST node.
type Node interface {
	Pos() Pos
	NodeID() int
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// NodeInfo carries the bookkeeping fields common to all nodes: the source
// location and the parser-assigned unique node ID.
type NodeInfo struct {
	Loc Pos
	ID  int
}

// Pos returns the node's source position.
func (b NodeInfo) Pos() Pos { return b.Loc }

// NodeID returns the parser-assigned unique ID.
func (b NodeInfo) NodeID() int { return b.ID }

// ---------------------------------------------------------------------------
// Resolver annotations
//
// The static resolver pass (internal/resolve) runs after parsing and
// annotates the tree in place: every lexical scope the interpreter will
// create at run time gets a ScopeInfo describing its slot layout, and every
// identifier reference or declaration that resolves statically gets a
// VarRef coordinate into that layout. Un-annotated nodes (Ref == nil,
// Scope == nil) take the interpreter's dynamic map-based path, so an
// unresolved program executes exactly as before the pass existed.

// VarRef is a resolved variable coordinate: the binding lives Depth
// environment hops outward from the innermost scope, at slot index Slot.
type VarRef struct {
	Depth int // environment hops outward from the use site's scope
	Slot  int // slot index within that scope
}

// ScopeInfo is the static slot layout of one lexical scope. Slots are
// allocated by the resolver; the runtime environment for the scope holds a
// flat value array of NumSlots entries. Names is indexed by slot.
type ScopeInfo struct {
	Names []string
	index map[string]int
}

// AddSlot allocates (or returns the existing) slot for name.
func (s *ScopeInfo) AddSlot(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	if s.index == nil {
		s.index = make(map[string]int)
	}
	i := len(s.Names)
	s.Names = append(s.Names, name)
	s.index[name] = i
	return i
}

// Slot returns the slot index for name, if the scope declares it.
func (s *ScopeInfo) Slot(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// NumSlots returns the number of allocated slots.
func (s *ScopeInfo) NumSlots() int { return len(s.Names) }

// Program is the root of a parsed file.
type Program struct {
	NodeInfo
	File string // file name, for diagnostics
	Body []Stmt
	// MaxID is one past the largest node ID in the tree; the instrumentor
	// allocates synthetic node IDs starting here.
	MaxID int
	// Resolved is set by the scope resolver. The interpreter sizes its
	// inline caches only for resolved programs, so an unresolved parse
	// runs on the map-walk environment with no slot or cache fast paths.
	Resolved bool
}

func (*Program) stmtNode() {}

// ---------------------------------------------------------------------------
// Statements

// DeclKind distinguishes var / let / const declarations.
type DeclKind int

// Declaration keywords.
const (
	DeclVar DeclKind = iota
	DeclLet
	DeclConst
)

// String returns the keyword.
func (k DeclKind) String() string {
	switch k {
	case DeclVar:
		return "var"
	case DeclLet:
		return "let"
	case DeclConst:
		return "const"
	}
	return "decl?"
}

// Declarator is one name = init pair inside a VarDecl.
type Declarator struct {
	NodeInfo
	Name string
	Init Expr    // may be nil
	Ref  *VarRef // set by the resolver; nil → dynamic define
}

// VarDecl is a var/let/const statement.
type VarDecl struct {
	NodeInfo
	Kind  DeclKind
	Decls []*Declarator
}

func (*VarDecl) stmtNode() {}

// FuncDecl is a named function declaration.
type FuncDecl struct {
	NodeInfo
	Name string
	Fn   *FuncLit
	Ref  *VarRef // set by the resolver; nil → dynamic define
}

func (*FuncDecl) stmtNode() {}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	NodeInfo
	X Expr
}

func (*ExprStmt) stmtNode() {}

// ReturnStmt is a return statement; Value may be nil.
type ReturnStmt struct {
	NodeInfo
	Value Expr
}

func (*ReturnStmt) stmtNode() {}

// IfStmt is an if/else statement. Else may be nil, a *BlockStmt, or an *IfStmt.
type IfStmt struct {
	NodeInfo
	Cond Expr
	Then Stmt
	Else Stmt
}

func (*IfStmt) stmtNode() {}

// ForStmt is a classic C-style for loop; any of Init, Cond, Post may be nil.
// Init is either a *VarDecl or an *ExprStmt.
type ForStmt struct {
	NodeInfo
	Init  Stmt
	Cond  Expr
	Post  Expr
	Body  Stmt
	Scope *ScopeInfo // header scope layout; set by the resolver
}

func (*ForStmt) stmtNode() {}

// ForInKind distinguishes for-in from for-of.
type ForInKind int

// Loop kinds.
const (
	ForIn ForInKind = iota
	ForOf
)

// ForInStmt is a for-in or for-of loop.
type ForInStmt struct {
	NodeInfo
	Kind     ForInKind
	DeclKind DeclKind // declaration keyword for the loop variable
	Decl     bool     // whether the loop variable is declared in the head
	Name     string
	Object   Expr
	Body     Stmt
	Scope    *ScopeInfo // per-iteration scope (Decl only); set by the resolver
	Ref      *VarRef    // loop-var coordinate (declared or assigned); set by the resolver
}

func (*ForInStmt) stmtNode() {}

// WhileStmt is a while loop.
type WhileStmt struct {
	NodeInfo
	Cond Expr
	Body Stmt
}

func (*WhileStmt) stmtNode() {}

// DoWhileStmt is a do { } while (cond) loop.
type DoWhileStmt struct {
	NodeInfo
	Body Stmt
	Cond Expr
}

func (*DoWhileStmt) stmtNode() {}

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	NodeInfo
	Body  []Stmt
	Scope *ScopeInfo // block scope layout; set by the resolver
}

func (*BlockStmt) stmtNode() {}

// BreakStmt is a break statement (labels are not supported in MiniJS).
type BreakStmt struct{ NodeInfo }

func (*BreakStmt) stmtNode() {}

// ContinueStmt is a continue statement.
type ContinueStmt struct{ NodeInfo }

func (*ContinueStmt) stmtNode() {}

// ThrowStmt is a throw statement.
type ThrowStmt struct {
	NodeInfo
	Value Expr
}

func (*ThrowStmt) stmtNode() {}

// TryStmt is try/catch/finally; Catch and Finally may be nil.
type TryStmt struct {
	NodeInfo
	Body     *BlockStmt
	CatchVar string // "" when the catch clause has no binding
	Catch    *BlockStmt
	Finally  *BlockStmt
	CatchRef *VarRef // catch-binding coordinate; set by the resolver
}

func (*TryStmt) stmtNode() {}

// SwitchCase is one case (or default, when Test is nil) clause.
type SwitchCase struct {
	NodeInfo
	Test Expr // nil for default
	Body []Stmt
}

// SwitchStmt is a switch statement.
type SwitchStmt struct {
	NodeInfo
	Disc  Expr
	Cases []*SwitchCase
	Scope *ScopeInfo // scope shared by all case bodies; set by the resolver
}

func (*SwitchStmt) stmtNode() {}

// ClassMethod is one method in a class body.
type ClassMethod struct {
	NodeInfo
	Name   string
	Static bool
	Fn     *FuncLit
}

// ClassDecl is a class declaration. SuperClass may be nil.
type ClassDecl struct {
	NodeInfo
	Name       string
	SuperClass Expr
	Methods    []*ClassMethod
	Ref        *VarRef // set by the resolver; nil → dynamic define
}

func (*ClassDecl) stmtNode() {}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ NodeInfo }

func (*EmptyStmt) stmtNode() {}

// ---------------------------------------------------------------------------
// Expressions

// Ident is an identifier reference.
type Ident struct {
	NodeInfo
	Name string
	Ref  *VarRef // set by the resolver; nil → dynamic lookup
}

func (*Ident) exprNode() {}

// NumberLit is a numeric literal.
type NumberLit struct {
	NodeInfo
	Value float64
}

func (*NumberLit) exprNode() {}

// StringLit is a string literal.
type StringLit struct {
	NodeInfo
	Value string
}

func (*StringLit) exprNode() {}

// TemplateLit is a template literal `a${b}c`. Quasis has one more element
// than Exprs; the pieces interleave Quasis[0] Exprs[0] Quasis[1] ...
type TemplateLit struct {
	NodeInfo
	Quasis []string
	Exprs  []Expr
}

func (*TemplateLit) exprNode() {}

// BoolLit is true or false.
type BoolLit struct {
	NodeInfo
	Value bool
}

func (*BoolLit) exprNode() {}

// NullLit is the null literal.
type NullLit struct{ NodeInfo }

func (*NullLit) exprNode() {}

// UndefinedLit is the undefined literal (modelled as a keyword in MiniJS).
type UndefinedLit struct{ NodeInfo }

func (*UndefinedLit) exprNode() {}

// ThisExpr is the this keyword.
type ThisExpr struct {
	NodeInfo
	Ref *VarRef // set by the resolver; nil → dynamic lookup of "this"
}

func (*ThisExpr) exprNode() {}

// ArrayLit is an array literal; elements may include *SpreadExpr.
type ArrayLit struct {
	NodeInfo
	Elems []Expr
}

func (*ArrayLit) exprNode() {}

// Property is one key: value entry in an object literal.
type Property struct {
	NodeInfo
	Key      string // identifier or string key ("" for spread)
	KeyExpr  Expr   // set when Computed
	Value    Expr
	Computed bool
	Spread   bool // {...x}
}

// ObjectLit is an object literal.
type ObjectLit struct {
	NodeInfo
	Props []*Property
}

func (*ObjectLit) exprNode() {}

// Param is a function parameter; Rest marks a ...rest parameter.
type Param struct {
	NodeInfo
	Name string
	Rest bool
	Ref  *VarRef // set by the resolver; nil → dynamic define
}

// FuncLit is a function body shared by declarations, expressions, arrows
// and class methods.
type FuncLit struct {
	NodeInfo
	Name    string // "" for anonymous
	Params  []*Param
	Body    *BlockStmt
	Arrow   bool
	Async   bool
	ExprRet Expr       // arrow with expression body: x => x + 1
	Scope   *ScopeInfo // function scope layout; set by the resolver
}

func (*FuncLit) exprNode() {}

// CallExpr is a function call; arguments may include *SpreadExpr.
type CallExpr struct {
	NodeInfo
	Callee Expr
	Args   []Expr
}

func (*CallExpr) exprNode() {}

// NewExpr is a constructor call.
type NewExpr struct {
	NodeInfo
	Callee Expr
	Args   []Expr
}

func (*NewExpr) exprNode() {}

// MemberExpr is property access: a.b or a[b] (Computed).
type MemberExpr struct {
	NodeInfo
	Object   Expr
	Property string // when not Computed
	Index    Expr   // when Computed
	Computed bool
}

func (*MemberExpr) exprNode() {}

// BinaryExpr is a binary arithmetic/comparison operation.
type BinaryExpr struct {
	NodeInfo
	Op    string
	Left  Expr
	Right Expr
}

func (*BinaryExpr) exprNode() {}

// LogicalExpr is &&, || or ?? with short-circuit evaluation.
type LogicalExpr struct {
	NodeInfo
	Op    string
	Left  Expr
	Right Expr
}

func (*LogicalExpr) exprNode() {}

// UnaryExpr is a prefix unary operation (!x, -x, typeof x, delete x.y).
type UnaryExpr struct {
	NodeInfo
	Op string
	X  Expr
}

func (*UnaryExpr) exprNode() {}

// UpdateExpr is ++x, x++, --x or x--.
type UpdateExpr struct {
	NodeInfo
	Op     string // "++" or "--"
	Prefix bool
	X      Expr
}

func (*UpdateExpr) exprNode() {}

// AssignExpr is an assignment, possibly compound (+=, -=, ...). Target is
// an *Ident or a *MemberExpr.
type AssignExpr struct {
	NodeInfo
	Op     string // "=", "+=", ...
	Target Expr
	Value  Expr
}

func (*AssignExpr) exprNode() {}

// CondExpr is the ternary conditional.
type CondExpr struct {
	NodeInfo
	Cond Expr
	Then Expr
	Else Expr
}

func (*CondExpr) exprNode() {}

// SeqExpr is the comma operator (rare; supported for completeness).
type SeqExpr struct {
	NodeInfo
	Exprs []Expr
}

func (*SeqExpr) exprNode() {}

// SpreadExpr is ...x in a call, array literal, or object literal.
type SpreadExpr struct {
	NodeInfo
	X Expr
}

func (*SpreadExpr) exprNode() {}

// AwaitExpr is await x. Per the paper (§4.5), for dataflow purposes
// "await foo" is treated as "foo".
type AwaitExpr struct {
	NodeInfo
	X Expr
}

func (*AwaitExpr) exprNode() {}
