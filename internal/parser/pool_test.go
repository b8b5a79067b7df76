package parser

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"turnstile/internal/printer"
)

// Parse shares pooled token buffers across goroutines. Results must not
// depend on which buffer a call got or what it held before, including
// buffers returned by a call that failed to lex or to parse.
func TestParseConcurrentPooledBuffers(t *testing.T) {
	srcs := []string{
		"let a = 'x' + \"y\";\nf(a, `t${a}`);",
		strings.Repeat("obj.k = [1, 2.5e3, 'v'];\n", 200),
		"let s = \"never closed",
		"let = ;",
		"class C { m(x) { return x ?? 1; } }\nnew C().m();",
		"x # y",
	}
	outcome := func(src string) string {
		prog, err := Parse("pool.js", src)
		if err != nil {
			return "error: " + err.Error()
		}
		return printer.Print(prog)
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		want[i] = outcome(src)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(srcs)
				if got := outcome(srcs[i]); got != want[i] {
					errs <- fmt.Errorf("goroutine %d round %d source %d:\n%s\nwant:\n%s", g, round, i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
