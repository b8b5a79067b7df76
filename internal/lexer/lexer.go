// Package lexer tokenizes MiniJS source code.
//
// The lexer supports the ES6 subset used by the corpus applications:
// identifiers, numeric and string literals (single, double and template
// quotes), the full operator set used by the parser, and // and /* */
// comments. Automatic semicolon insertion is handled in the parser by
// treating newlines as soft statement boundaries; the lexer records, for
// each token, whether a newline preceded it.
package lexer

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind uint8

// Token kinds produced by the lexer.
const (
	EOF Kind = iota
	Ident
	Keyword
	Number
	String   // 'x' or "x"
	Template // `x${ ... }y` — emitted as TemplateStart/Chunk/End sequence
	Punct    // operators and delimiters

	// Template literal structure. A template literal `a${b}c` lexes as
	//   TemplateStart("a") <tokens for b> TemplateMid/TemplateEnd("c")
	// where TemplateMid closes one interpolation and opens the next chunk.
	TemplateStart
	TemplateMid
	TemplateEnd
	TemplateFull // template with no interpolations: `abc`
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case Keyword:
		return "Keyword"
	case Number:
		return "Number"
	case String:
		return "String"
	case Punct:
		return "Punct"
	case TemplateStart:
		return "TemplateStart"
	case TemplateMid:
		return "TemplateMid"
	case TemplateEnd:
		return "TemplateEnd"
	case TemplateFull:
		return "TemplateFull"
	}
	return "Token?"
}

// Token is one lexical token. Its fields are ordered to pack it into 32
// bytes; Line and Col are 1-based and count bytes, not runes.
type Token struct {
	Text    string // raw text for idents/puncts, decoded value for strings
	Line    int32
	Col     int32
	Kind    Kind
	NLBefor bool // a newline appeared between the previous token and this one
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

var keywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true,
	"return": true, "if": true, "else": true, "for": true, "while": true,
	"do": true, "break": true, "continue": true, "new": true, "class": true,
	"extends": true, "this": true, "null": true, "true": true, "false": true,
	"undefined": true, "typeof": true, "delete": true, "in": true, "of": true,
	"async": true, "await": true, "throw": true, "try": true, "catch": true,
	"finally": true, "switch": true, "case": true, "default": true,
	"instanceof": true, "static": true, "void": true,
}

// IsKeyword reports whether name is a MiniJS keyword.
func IsKeyword(name string) bool { return keywords[name] }

// multi-character punctuators, longest-match-first.
var puncts = []string{
	"===", "!==", "**=", "...", ">>>", "<<=", ">>=", "&&=", "||=", "??=",
	"=>", "==", "!=", "<=", ">=", "&&", "||", "??", "++", "--", "+=", "-=",
	"*=", "/=", "%=", "&=", "|=", "^=", "**", "<<", ">>", "?.",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
	":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
}

// punctsByFirst holds, for each byte, the punctuators starting with it in
// the longest-match-first order of puncts.
var punctsByFirst [256][]string

// Byte classes for the scanning loops.
const (
	identStart uint8 = 1 << iota // letters, '_' and '$'
	digit
)

var byteClass [256]uint8

func init() {
	for _, p := range puncts {
		punctsByFirst[p[0]] = append(punctsByFirst[p[0]], p)
	}
	for c := 'a'; c <= 'z'; c++ {
		byteClass[c] = identStart
		byteClass[c-'a'+'A'] = identStart
	}
	byteClass['_'], byteClass['$'] = identStart, identStart
	for c := '0'; c <= '9'; c++ {
		byteClass[c] = digit
	}
}

// Error is a lexical error with position information.
type Error struct {
	Msg  string
	Line int
	Col  int
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Lexer scans a MiniJS source string.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int

	// template interpolation nesting: counts unbalanced '{' since the last
	// '${'. When a '}' is seen at depth 0 with pending template state, the
	// lexer resumes the enclosing template literal.
	templateDepth []int
	nlPending     bool
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans the whole input and returns the token list, terminated by
// an EOF token.
func Tokenize(src string) ([]Token, error) {
	toks, err := TokenizeInto(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// TokenizeInto is Tokenize appending to buf[:0], so a caller can reuse one
// buffer across sources. On error it returns the tokens scanned before the
// error, so the caller can clear them before reusing the buffer.
func TokenizeInto(buf []Token, src string) ([]Token, error) {
	// MiniJS averages 4.2-4.4 source bytes per token and rarely goes
	// below 3, so this capacity almost never has to grow.
	if n := len(src)/3 + 1; cap(buf) < n {
		buf = make([]Token, 0, n)
	}
	lx := New(src)
	toks := buf[:0]
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...), Line: lx.line, Col: lx.col}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
		lx.nlPending = true
	} else {
		lx.col++
	}
	return c
}

// skip advances over n bytes that contain no newline.
func (lx *Lexer) skip(n int) {
	lx.pos += n
	lx.col += n
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: int32(lx.line), Col: int32(lx.col), NLBefor: lx.nlPending}
	lx.nlPending = false
	if lx.pos >= len(lx.src) {
		tok.Kind = EOF
		return tok, nil
	}
	c := lx.src[lx.pos]
	switch {
	case byteClass[c]&identStart != 0:
		tok.Text = lx.scanIdent()
		tok.Kind = Ident
		if keywords[tok.Text] {
			tok.Kind = Keyword
		}
		return tok, nil
	case byteClass[c]&digit != 0, c == '.' && isDigit(lx.peekAt(1)):
		text, err := lx.scanNumber()
		if err != nil {
			return Token{}, err
		}
		tok.Kind, tok.Text = Number, text
		return tok, nil
	case c == '"' || c == '\'':
		text, err := lx.scanString(c)
		if err != nil {
			return Token{}, err
		}
		tok.Kind, tok.Text = String, text
		return tok, nil
	case c == '`':
		lx.advance()
		chunk, term, err := lx.scanTemplateChunk()
		if err != nil {
			return Token{}, err
		}
		tok.Text = chunk
		if term == '`' {
			tok.Kind = TemplateFull
			return tok, nil
		}
		lx.templateDepth = append(lx.templateDepth, 0)
		tok.Kind = TemplateStart
		return tok, nil
	case c == '}' && len(lx.templateDepth) > 0 && lx.templateDepth[len(lx.templateDepth)-1] == 0:
		// resume template literal
		lx.advance()
		chunk, term, err := lx.scanTemplateChunk()
		if err != nil {
			return Token{}, err
		}
		tok.Text = chunk
		if term == '`' {
			lx.templateDepth = lx.templateDepth[:len(lx.templateDepth)-1]
			tok.Kind = TemplateEnd
			return tok, nil
		}
		tok.Kind = TemplateMid
		return tok, nil
	}
	rest := lx.src[lx.pos:]
	for _, p := range punctsByFirst[c] {
		if strings.HasPrefix(rest, p) {
			lx.skip(len(p)) // punctuators never contain '\n'
			if len(lx.templateDepth) > 0 {
				top := len(lx.templateDepth) - 1
				switch p {
				case "{":
					lx.templateDepth[top]++
				case "}":
					lx.templateDepth[top]--
				}
			}
			tok.Kind, tok.Text = Punct, p
			return tok, nil
		}
	}
	r, _ := utf8.DecodeRuneInString(rest)
	return Token{}, lx.errf("unexpected character %q", string(r))
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		switch c := lx.src[lx.pos]; {
		case c == ' ' || c == '\t' || c == '\r':
			lx.skip(1)
		case c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			n := strings.IndexByte(lx.src[lx.pos:], '\n')
			if n < 0 {
				n = len(lx.src) - lx.pos
			}
			lx.skip(n)
		case c == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *Lexer) scanIdent() string {
	start := lx.pos
	end := start + 1
	for end < len(lx.src) && byteClass[lx.src[end]] != 0 {
		end++
	}
	lx.skip(end - start)
	return lx.src[start:end]
}

func (lx *Lexer) scanNumber() (string, error) {
	start := lx.pos
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		if !isHexDigit(lx.peek()) {
			return "", lx.errf("hexadecimal literal needs at least one digit")
		}
		for isHexDigit(lx.peek()) {
			lx.advance()
		}
		return lx.src[start:lx.pos], nil
	}
	for isDigit(lx.peek()) {
		lx.advance()
	}
	if lx.peek() == '.' && isDigit(lx.peekAt(1)) {
		lx.advance()
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	if c := lx.peek(); c == 'e' || c == 'E' {
		save, saveCol := lx.pos, lx.col
		lx.advance()
		if c := lx.peek(); c == '+' || c == '-' {
			lx.advance()
		}
		if !isDigit(lx.peek()) {
			// not an exponent; leave for the parser to reject
			lx.pos, lx.col = save, saveCol
			return lx.src[start:lx.pos], nil
		}
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	return lx.src[start:lx.pos], nil
}

func (lx *Lexer) scanString(quote byte) (string, error) {
	// Fast path: a literal with no escape and no newline is its own
	// source text between the quotes.
	for i := lx.pos + 1; i < len(lx.src); i++ {
		c := lx.src[i]
		if c == quote {
			text := lx.src[lx.pos+1 : i]
			lx.skip(i + 1 - lx.pos)
			return text, nil
		}
		if c == '\\' || c == '\n' {
			break
		}
	}
	lx.advance() // opening quote
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return "", lx.errf("unterminated string literal")
		}
		c := lx.advance()
		switch {
		case c == quote:
			return b.String(), nil
		case c == '\n':
			return "", lx.errf("newline in string literal")
		case c == '\\':
			if lx.pos >= len(lx.src) {
				return "", lx.errf("unterminated string escape")
			}
			e := lx.advance()
			b.WriteByte(unescape(e))
		default:
			b.WriteByte(c)
		}
	}
}

// scanTemplateChunk scans template text until a '${' (returns term '$') or
// closing backquote (returns term '`').
func (lx *Lexer) scanTemplateChunk() (string, byte, error) {
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return "", 0, lx.errf("unterminated template literal")
		}
		c := lx.advance()
		switch {
		case c == '`':
			return b.String(), '`', nil
		case c == '$' && lx.peek() == '{':
			lx.advance()
			return b.String(), '$', nil
		case c == '\\':
			if lx.pos >= len(lx.src) {
				return "", 0, lx.errf("unterminated template escape")
			}
			e := lx.advance()
			b.WriteByte(unescape(e))
		default:
			b.WriteByte(c)
		}
	}
}

func unescape(e byte) byte {
	switch e {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case 'b':
		return '\b'
	default:
		return e
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
