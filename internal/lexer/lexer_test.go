package lexer

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func mustTokenize(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	return toks
}

func TestIdentifiersAndKeywords(t *testing.T) {
	toks := mustTokenize(t, "let x = foo;")
	want := []Kind{Keyword, Ident, Punct, Ident, Punct, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v want %v (%v)", i, got[i], want[i], toks)
		}
	}
	if toks[0].Text != "let" || toks[1].Text != "x" || toks[3].Text != "foo" {
		t.Fatalf("bad texts: %v", texts(toks))
	}
}

func TestNumbers(t *testing.T) {
	cases := map[string]string{
		"42":      "42",
		"3.14":    "3.14",
		"0x1F":    "0x1F",
		"1e6":     "1e6",
		"2.5e-3":  "2.5e-3",
		".5":      ".5",
		"1E+2":    "1E+2",
		"1000000": "1000000",
	}
	for src, want := range cases {
		toks := mustTokenize(t, src)
		if toks[0].Kind != Number || toks[0].Text != want {
			t.Errorf("Tokenize(%q) = %v, want Number(%q)", src, toks[0], want)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	toks := mustTokenize(t, `"a\nb\t\"q\""`)
	if toks[0].Kind != String {
		t.Fatalf("kind = %v", toks[0].Kind)
	}
	if toks[0].Text != "a\nb\t\"q\"" {
		t.Fatalf("text = %q", toks[0].Text)
	}
}

func TestSingleQuoteString(t *testing.T) {
	toks := mustTokenize(t, `'it\'s'`)
	if toks[0].Text != "it's" {
		t.Fatalf("text = %q", toks[0].Text)
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := Tokenize(`"abc`); err == nil {
		t.Fatal("expected error for unterminated string")
	}
	if _, err := Tokenize("\"a\nb\""); err == nil {
		t.Fatal("expected error for newline in string")
	}
}

func TestComments(t *testing.T) {
	toks := mustTokenize(t, "a // line\n/* block\nstill */ b")
	got := texts(toks)
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
	if !toks[1].NLBefor {
		t.Fatal("expected newline-before flag on token after line comment")
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	if _, err := Tokenize("/* never closed"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPunctLongestMatch(t *testing.T) {
	toks := mustTokenize(t, "a === b !== c => d ... ** >>> ?.")
	var ps []string
	for _, tk := range toks {
		if tk.Kind == Punct {
			ps = append(ps, tk.Text)
		}
	}
	want := []string{"===", "!==", "=>", "...", "**", ">>>", "?."}
	if len(ps) != len(want) {
		t.Fatalf("puncts = %v, want %v", ps, want)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("punct %d = %q want %q", i, ps[i], want[i])
		}
	}
}

func TestTemplateLiteralPlain(t *testing.T) {
	toks := mustTokenize(t, "`hello world`")
	if toks[0].Kind != TemplateFull || toks[0].Text != "hello world" {
		t.Fatalf("got %v", toks[0])
	}
}

func TestTemplateLiteralInterp(t *testing.T) {
	toks := mustTokenize(t, "`a${x}b${y}c`")
	want := []Kind{TemplateStart, Ident, TemplateMid, Ident, TemplateEnd, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: got %v want %v (%v)", i, got[i], want[i], toks)
		}
	}
	if toks[0].Text != "a" || toks[2].Text != "b" || toks[4].Text != "c" {
		t.Fatalf("chunks: %v", texts(toks))
	}
}

func TestTemplateWithNestedBraces(t *testing.T) {
	toks := mustTokenize(t, "`v=${ {a: 1}.a }!`")
	last := toks[len(toks)-2]
	if last.Kind != TemplateEnd || last.Text != "!" {
		t.Fatalf("got %v", toks)
	}
}

func TestTemplateUnterminated(t *testing.T) {
	if _, err := Tokenize("`abc${x}"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPositions(t *testing.T) {
	toks := mustTokenize(t, "a\n  bb\n    c")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Fatalf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Fatalf("bb at %d:%d", toks[1].Line, toks[1].Col)
	}
	if toks[2].Line != 3 || toks[2].Col != 5 {
		t.Fatalf("c at %d:%d", toks[2].Line, toks[2].Col)
	}
}

func TestNewlineBeforeFlag(t *testing.T) {
	toks := mustTokenize(t, "return\nx")
	if toks[0].NLBefor {
		t.Fatal("first token should not have NLBefor")
	}
	if !toks[1].NLBefor {
		t.Fatal("x should have NLBefor after newline")
	}
}

func TestIsKeyword(t *testing.T) {
	for _, kw := range []string{"var", "let", "const", "function", "await", "class"} {
		if !IsKeyword(kw) {
			t.Errorf("IsKeyword(%q) = false", kw)
		}
	}
	for _, id := range []string{"x", "letx", "classy", "Function"} {
		if IsKeyword(id) {
			t.Errorf("IsKeyword(%q) = true", id)
		}
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	if _, err := Tokenize("a # b"); err == nil {
		t.Fatal("expected error for '#'")
	}
}

// Property: tokenizing any identifier-safe string round-trips its text.
func TestQuickIdentRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		var b strings.Builder
		b.WriteByte('v')
		for _, c := range raw {
			c = 'a' + c%26
			b.WriteByte(c)
		}
		name := b.String()
		toks, err := Tokenize(name)
		if err != nil {
			return false
		}
		return len(toks) == 2 && (toks[0].Kind == Ident || toks[0].Kind == Keyword) && toks[0].Text == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the lexer terminates and either errors or ends with EOF for
// arbitrary printable input.
func TestQuickNoPanic(t *testing.T) {
	f := func(raw []byte) bool {
		var b strings.Builder
		for _, c := range raw {
			b.WriteByte(' ' + c%95) // printable ASCII
		}
		toks, err := Tokenize(b.String())
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStringEscapeDefaults(t *testing.T) {
	toks := mustTokenize(t, `"\\ \b \0 \r"`)
	want := "\\ \b \x00 \r"
	if toks[0].Text != want {
		t.Fatalf("got %q want %q", toks[0].Text, want)
	}
}

func TestHexLiteralRequiresDigits(t *testing.T) {
	if _, err := Tokenize("0x"); err == nil {
		t.Fatal("0x without digits should fail")
	}
	if _, err := Tokenize("0X}"); err == nil {
		t.Fatal("0X without digits should fail")
	}
	toks := mustTokenize(t, "0x0")
	if toks[0].Kind != Number || toks[0].Text != "0x0" {
		t.Fatalf("tok = %v", toks[0])
	}
}

// An 'e' that does not start an exponent is rewound with its column.
func TestNonExponentColumn(t *testing.T) {
	for src, want := range map[string][]Token{
		"1ex":  {{Kind: Number, Text: "1", Line: 1, Col: 1}, {Kind: Ident, Text: "ex", Line: 1, Col: 2}},
		"1e+x": {{Kind: Number, Text: "1", Line: 1, Col: 1}, {Kind: Ident, Text: "e", Line: 1, Col: 2}},
	} {
		toks := mustTokenize(t, src)
		for i, w := range want {
			if toks[i] != w {
				t.Errorf("Tokenize(%q)[%d] = %v, want %v", src, i, toks[i], w)
			}
		}
	}
}

func TestUnexpectedNonASCII(t *testing.T) {
	_, err := Tokenize("xé")
	if err == nil || err.Error() != `1:2: unexpected character "é"` {
		t.Fatalf("err = %v", err)
	}
}
