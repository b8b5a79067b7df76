package lexer_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/lexer"
)

// This file keeps the straightforward byte-at-a-time lexer the
// table-driven one replaced, as a differential oracle: for every input
// both must produce the same tokens (kind, text, line, column, newline
// flag) or the same error text.

type refToken struct {
	Kind    lexer.Kind
	Text    string
	Line    int
	Col     int
	NLBefor bool
}

var refKeywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true,
	"return": true, "if": true, "else": true, "for": true, "while": true,
	"do": true, "break": true, "continue": true, "new": true, "class": true,
	"extends": true, "this": true, "null": true, "true": true, "false": true,
	"undefined": true, "typeof": true, "delete": true, "in": true, "of": true,
	"async": true, "await": true, "throw": true, "try": true, "catch": true,
	"finally": true, "switch": true, "case": true, "default": true,
	"instanceof": true, "static": true, "void": true,
}

var refPuncts = []string{
	"===", "!==", "**=", "...", ">>>", "<<=", ">>=", "&&=", "||=", "??=",
	"=>", "==", "!=", "<=", ">=", "&&", "||", "??", "++", "--", "+=", "-=",
	"*=", "/=", "%=", "&=", "|=", "^=", "**", "<<", ">>", "?.",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~", "?",
	":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
}

type refLexer struct {
	src           string
	pos           int
	line          int
	col           int
	templateDepth []int
	nlPending     bool
}

func refTokenize(src string) ([]refToken, error) {
	lx := &refLexer{src: src, line: 1, col: 1}
	var toks []refToken
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == lexer.EOF {
			return toks, nil
		}
	}
}

func (lx *refLexer) errf(format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", lx.line, lx.col, fmt.Sprintf(format, args...))
}

func (lx *refLexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *refLexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *refLexer) advance() byte {
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

func (lx *refLexer) next() (refToken, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return refToken{}, err
	}
	nl := lx.nlPending
	lx.nlPending = false
	line, col := lx.line, lx.col
	mk := func(k lexer.Kind, text string) refToken {
		return refToken{Kind: k, Text: text, Line: line, Col: col, NLBefor: nl}
	}
	if lx.pos >= len(lx.src) {
		return mk(lexer.EOF, ""), nil
	}
	c := lx.peek()
	switch {
	case refIsIdentStart(c):
		text := lx.scanIdent()
		if refKeywords[text] {
			return mk(lexer.Keyword, text), nil
		}
		return mk(lexer.Ident, text), nil
	case c >= '0' && c <= '9', c == '.' && refIsDigit(lx.peekAt(1)):
		text, err := lx.scanNumber()
		if err != nil {
			return refToken{}, err
		}
		return mk(lexer.Number, text), nil
	case c == '"' || c == '\'':
		text, err := lx.scanString(c)
		if err != nil {
			return refToken{}, err
		}
		return mk(lexer.String, text), nil
	case c == '`':
		lx.advance()
		chunk, term, err := lx.scanTemplateChunk()
		if err != nil {
			return refToken{}, err
		}
		if term == '`' {
			return mk(lexer.TemplateFull, chunk), nil
		}
		lx.templateDepth = append(lx.templateDepth, 0)
		return mk(lexer.TemplateStart, chunk), nil
	case c == '}' && len(lx.templateDepth) > 0 && lx.templateDepth[len(lx.templateDepth)-1] == 0:
		lx.advance()
		chunk, term, err := lx.scanTemplateChunk()
		if err != nil {
			return refToken{}, err
		}
		if term == '`' {
			lx.templateDepth = lx.templateDepth[:len(lx.templateDepth)-1]
			return mk(lexer.TemplateEnd, chunk), nil
		}
		return mk(lexer.TemplateMid, chunk), nil
	default:
		for _, p := range refPuncts {
			if strings.HasPrefix(lx.src[lx.pos:], p) {
				for range p {
					lx.advance()
				}
				if len(lx.templateDepth) > 0 {
					top := len(lx.templateDepth) - 1
					switch p {
					case "{":
						lx.templateDepth[top]++
					case "}":
						lx.templateDepth[top]--
					}
				}
				return mk(lexer.Punct, p), nil
			}
		}
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
	return refToken{}, lx.errf("unexpected character %q", string(r))
}

func (lx *refLexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
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

func (lx *refLexer) scanIdent() string {
	start := lx.pos
	for lx.pos < len(lx.src) && (refIsIdentStart(lx.peek()) || refIsDigit(lx.peek())) {
		lx.advance()
	}
	return lx.src[start:lx.pos]
}

func (lx *refLexer) scanNumber() (string, error) {
	start := lx.pos
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		if !refIsHexDigit(lx.peek()) {
			return "", lx.errf("hexadecimal literal needs at least one digit")
		}
		for refIsHexDigit(lx.peek()) {
			lx.advance()
		}
		return lx.src[start:lx.pos], nil
	}
	for refIsDigit(lx.peek()) {
		lx.advance()
	}
	if lx.peek() == '.' && refIsDigit(lx.peekAt(1)) {
		lx.advance()
		for refIsDigit(lx.peek()) {
			lx.advance()
		}
	}
	if c := lx.peek(); c == 'e' || c == 'E' {
		save, saveCol := lx.pos, lx.col
		lx.advance()
		if c := lx.peek(); c == '+' || c == '-' {
			lx.advance()
		}
		if !refIsDigit(lx.peek()) {
			lx.pos, lx.col = save, saveCol
			return lx.src[start:lx.pos], nil
		}
		for refIsDigit(lx.peek()) {
			lx.advance()
		}
	}
	return lx.src[start:lx.pos], nil
}

func (lx *refLexer) scanString(quote byte) (string, error) {
	lx.advance()
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
			b.WriteByte(refUnescape(lx.advance()))
		default:
			b.WriteByte(c)
		}
	}
}

func (lx *refLexer) scanTemplateChunk() (string, byte, error) {
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
			b.WriteByte(refUnescape(lx.advance()))
		default:
			b.WriteByte(c)
		}
	}
}

func refUnescape(e byte) byte {
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

func refIsIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func refIsDigit(c byte) bool { return c >= '0' && c <= '9' }

func refIsHexDigit(c byte) bool {
	return refIsDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// checkMatchesReference reports the first difference between Tokenize and
// the reference on src. It also lexes into a dirty reused buffer, the way
// parser.Parse does, which must not change the result.
func checkMatchesReference(src string) error {
	want, wantErr := refTokenize(src)
	got, gotErr := lexer.Tokenize(src)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		return fmt.Errorf("error = %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d tokens, reference %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.Kind || g.Text != w.Text || int(g.Line) != w.Line || int(g.Col) != w.Col || g.NLBefor != w.NLBefor {
			return fmt.Errorf("token %d = %v nl=%v, reference %s(%q)@%d:%d nl=%v",
				i, g, g.NLBefor, w.Kind, w.Text, w.Line, w.Col, w.NLBefor)
		}
	}
	dirty := make([]lexer.Token, len(src)/3+8) // large enough to be reused
	for i := range dirty {
		dirty[i] = lexer.Token{Kind: lexer.Punct, Text: "}", Line: 9, Col: 9, NLBefor: true}
	}
	reused, err := lexer.TokenizeInto(dirty, src)
	if (err == nil) != (gotErr == nil) {
		return fmt.Errorf("TokenizeInto error = %v, Tokenize %v", err, gotErr)
	}
	if err == nil && fmt.Sprint(reused) != fmt.Sprint(got) {
		return fmt.Errorf("TokenizeInto into a reused buffer differs from Tokenize")
	}
	return nil
}

// edgeSources pin the corners the fast paths skip over: numbers whose 'e'
// is not an exponent, escapes and newlines inside strings, comments at
// EOF, templates nesting braces, and errors of every kind.
var edgeSources = []string{
	"", " \t\r\n", "a", "1ex", "1e+x", "1e-", "2.5E+3 .5 0x1F 0X", "1.e3", "3..toString()",
	`'it\'s' "a\nb" "\\" 'x' "" ''`, "\"a\nb\"", `"abc`, `"ab\`, "'é' \"日本\"",
	"a // tail", "a /* x\ny */ b", "/* never", "/", "a / b /= c",
	"`a${x}b${ {c: 1}.c }d` `plain` `\\` `x\ny`", "`abc${x}", "`abc", "`a\\",
	"x ??= y?.z ** 2 >>> 1 ... => !== ===", "{ } ( ) [ ] ; , : ~ ^ | &",
	"xé", "a # b", "@", "\x00", "\xff", "a\n  bb\n    c", "return\nx",
	"f(a,\n`t${g(`u${h}`)}`)\n}",
}

func generatedSources(t testing.TB) []string {
	var out []string
	for _, seed := range []uint64{1, 7, 42} {
		apps, err := corpus.GenCorpus(15, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range apps {
			names := make([]string, 0, len(app.Files))
			for n := range app.Files {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				out = append(out, app.Files[n])
			}
		}
	}
	return out
}

func instrumentedSources(t testing.TB) []string {
	var out []string
	for _, mode := range []instrument.Mode{instrument.Selective, instrument.Exhaustive} {
		opts := core.DefaultOptions()
		opts.Mode = mode
		for _, app := range corpus.Runnable(corpus.All()) {
			m, err := core.Manage(map[string]string{app.Name + ".js": app.Source}, app.PolicyJSON, opts)
			if err != nil {
				t.Fatalf("%s: %v", app.Name, err)
			}
			out = append(out, m.Instrumented[app.Name+".js"])
		}
	}
	return out
}

var corpusSources = sync.OnceValue(func() []string {
	var out []string
	for _, app := range corpus.All() {
		out = append(out, app.Source)
	}
	return out
})

func TestTokenizeMatchesReference(t *testing.T) {
	groups := []struct {
		name string
		srcs []string
	}{
		{"edge", edgeSources},
		{"corpus", corpusSources()},
		{"generated", generatedSources(t)},
		{"instrumented", instrumentedSources(t)},
	}
	for _, g := range groups {
		if len(g.srcs) == 0 {
			t.Fatalf("%s: no sources", g.name)
		}
		for i, src := range g.srcs {
			if err := checkMatchesReference(src); err != nil {
				t.Errorf("%s source %d: %v", g.name, i, err)
			}
		}
	}
}

func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, src := range edgeSources {
		f.Add(src)
	}
	for _, src := range corpusSources() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := checkMatchesReference(src); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkTokenize(b *testing.B) {
	srcs := corpusSources()
	n := 0
	for _, src := range srcs {
		n += len(src)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for b.Loop() {
		for _, src := range srcs {
			if _, err := lexer.Tokenize(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
