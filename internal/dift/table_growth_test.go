package dift_test

import (
	"testing"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/dift"
	"turnstile/internal/instrument"
)

// TestExhaustiveTableGrowthBoundedByReferences runs exhaustively
// instrumented corpus apps for 1000 messages each. Every tracked value
// type lives in a box that carries its own labels, so the RefID-keyed
// tables grow only with labelled reference values: one array per message,
// the result of the frame's split.
func TestExhaustiveTableGrowthBoundedByReferences(t *testing.T) {
	const msgs = 1000
	byName := map[string]*corpus.App{}
	for _, a := range corpus.Runnable(corpus.All()) {
		byName[a.Name] = a
	}
	for _, name := range []string{"camera-archiver", "smart-meter"} {
		a := byName[name]
		if a == nil {
			t.Fatalf("corpus app %s missing", name)
		}
		opts := core.DefaultOptions()
		opts.Mode = instrument.Exhaustive
		opts.Enforce = false
		app, err := core.Manage(map[string]string{a.Name + ".js": a.Source}, a.PolicyJSON, opts)
		if err != nil {
			t.Fatal(err)
		}
		src, ok := app.IP.Source(a.SourceName)
		if !ok {
			t.Fatalf("%s: source %q not registered", name, a.SourceName)
		}
		l0, i0 := dift.LabelTableSizes(app.Tracker)
		boxed0 := app.Tracker.Stats().Boxed
		for i := 0; i < msgs; i++ {
			if err := app.IP.Emit(src, "data", a.Message(i)); err != nil {
				t.Fatalf("%s message %d: %v", name, i, err)
			}
		}
		l1, i1 := dift.LabelTableSizes(app.Tracker)
		boxed := app.Tracker.Stats().Boxed - boxed0
		if boxed < 10*msgs {
			t.Fatalf("%s: only %d boxes over %d messages; the app no longer exercises exhaustive tracking", name, boxed, msgs)
		}
		if grew := l1 - l0; grew > msgs {
			t.Errorf("%s: label table grew by %d entries over %d messages (%d boxes); want at most one labelled reference per message",
				name, grew, msgs, boxed)
		}
		if i1 != i0 {
			t.Errorf("%s: integrity table grew %d -> %d on a flat policy", name, i0, i1)
		}
	}
}
