package harness

import (
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/parser"
	"turnstile/internal/printer"
	"turnstile/internal/workload"
)

// TestRealTimeStreamIntegration runs a prepared application under genuine
// wall-clock pacing (the paper's methodology) at a rate where pacing
// dominates, and confirms the elapsed time matches the schedule — the
// fidelity check for the virtual-time queue substitution.
func TestRealTimeStreamIntegration(t *testing.T) {
	app := corpus.ByName(corpus.All(), "sensor-logger")
	prep, err := PrepareApp(app, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	const hz = 500.0
	elapsed, err := workload.RealTimeStream(n, hz, prep.Selective.Process)
	if err != nil {
		t.Fatal(err)
	}
	floor := workload.CompletionTime(make(workload.Service, n), hz)
	if elapsed < floor {
		t.Fatalf("elapsed %v below pacing floor %v", elapsed, floor)
	}
	if elapsed > 5*floor {
		t.Fatalf("elapsed %v way over pacing floor %v", elapsed, floor)
	}
	// the app processed every message
	if writes := prep.Selective.IP.IO.WritesTo("fs"); len(writes) < n {
		t.Fatalf("writes = %d", len(writes))
	}
}

// TestInstrumentedCorpusRoundTrips prints and re-parses every corpus app
// plus both instrumented variants of every runnable app — a broad
// integration sweep over the printer/parser pair.
func TestInstrumentedCorpusRoundTrips(t *testing.T) {
	for _, app := range corpus.All() {
		if _, err := parser.Parse(app.Name+".js", app.Source); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
	}
	for _, app := range corpus.Runnable(corpus.All()) {
		prep, err := PrepareApp(app, false)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		// deep-check the instrumented trees still print deterministically
		for _, res := range []*PreparedApp{prep} {
			selSrc := printer.Print(res.SelectiveResult.Program)
			if _, err := parser.Parse(app.Name+".sel.js", selSrc); err != nil {
				t.Fatalf("%s selective: %v", app.Name, err)
			}
			exhSrc := printer.Print(res.ExhaustiveResult.Program)
			reparsed, err := parser.Parse(app.Name+".exh.js", exhSrc)
			if err != nil {
				t.Fatalf("%s exhaustive: %v", app.Name, err)
			}
			if printer.Print(reparsed) != exhSrc {
				t.Fatalf("%s: print not idempotent on instrumented tree", app.Name)
			}
		}
	}
}

// TestSinkTraceEquivalence verifies the non-invasiveness property across
// the whole runnable corpus: for every app, the original and both managed
// versions produce identical sink traces on the same workload.
func TestSinkTraceEquivalence(t *testing.T) {
	for _, app := range corpus.Runnable(corpus.All()) {
		prep, err := PrepareApp(app, false)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		const n = 6
		for i := 0; i < n; i++ {
			for _, r := range []*Runner{prep.Original, prep.Selective, prep.Exhaustive} {
				if err := r.Process(i); err != nil {
					t.Fatalf("%s %s msg %d: %v", app.Name, r.Mode, i, err)
				}
			}
		}
		orig := prep.Original.IP.IO.Writes
		for _, r := range []*Runner{prep.Selective, prep.Exhaustive} {
			got := r.IP.IO.Writes
			if len(got) != len(orig) {
				t.Fatalf("%s %s: %d writes vs %d", app.Name, r.Mode, len(got), len(orig))
			}
			for i := range orig {
				if got[i].Value != orig[i].Value || got[i].Target != orig[i].Target {
					t.Fatalf("%s %s write %d: %v vs %v", app.Name, r.Mode, i, got[i], orig[i])
				}
			}
		}
	}
}
