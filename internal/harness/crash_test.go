package harness

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/faults"
	"turnstile/internal/guard"

	"turnstile/internal/core"
)

func TestCrashCorpusTypedOutcomes(t *testing.T) {
	res, err := RunCrashCorpus(CrashOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) < 10 {
		t.Fatalf("crash corpus shrank to %d apps", len(res.Apps))
	}
	for _, a := range res.Apps {
		if !a.OK {
			t.Errorf("%s: want %s, got %s: %s", a.App, a.Want, a.Kind, a.Detail)
		}
	}
	if res.Passed != len(res.Apps) {
		t.Fatalf("typed termination: %d/%d\n%s", res.Passed, len(res.Apps), RenderCrash(res))
	}
}

// crashChaosSchedule is the fault schedule the crash corpus runs under in
// TestCrashCorpusUnderChaosSchedule and its TestReportMatrix row.
func crashChaosSchedule() *faults.Schedule { return faults.Generate(42, "crash-corpus") }

// TestCrashCorpusUnderChaosSchedule: fault injection may change WHICH
// typed error an app dies with (an injected delay can turn a fuel trip
// into a deadline trip, an injected EIO into a throw) — but never produce
// an untyped error or a hang. The same outcomes at other worker counts and
// on the tree-walker are a row of TestReportMatrix.
func TestCrashCorpusUnderChaosSchedule(t *testing.T) {
	res, err := RunCrashCorpus(CrashOptions{Parallel: 1, Schedule: crashChaosSchedule()})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.Kind == "untyped" || a.Kind == "none" {
			t.Errorf("%s: %s outcome under chaos: %s", a.App, a.Kind, a.Detail)
		}
	}
}

// corpusRecord runs one runnable corpus app end to end (manage + message
// pump) and renders every observable: sink writes, console, violations.
func corpusRecord(app *corpus.App, lim *guard.Limits, messages int) (string, error) {
	opts := core.DefaultOptions()
	opts.Enforce = false // audit mode: violations recorded, flows not blocked
	opts.Guard = lim
	m, err := core.Manage(map[string]string{app.Name + ".js": app.Source}, app.PolicyJSON, opts)
	if err != nil {
		return "", fmt.Errorf("%s: %w", app.Name, err)
	}
	for i := 0; i < messages; i++ {
		if err := m.Emit(app.SourceName, "data", app.Message(i)); err != nil {
			return "", fmt.Errorf("%s msg %d: %w", app.Name, i, err)
		}
	}
	var b strings.Builder
	for _, w := range m.Writes() {
		fmt.Fprintf(&b, "%s.%s %s %v\n", w.Module, w.Op, w.Target, w.Value)
	}
	for _, line := range m.IP.ConsoleOut {
		fmt.Fprintf(&b, "console %s\n", line)
	}
	for _, v := range m.Violations() {
		fmt.Fprintf(&b, "violation %s\n", v.Error())
	}
	return b.String(), nil
}

func TestGuardTransparency(t *testing.T) {
	// generous budgets must be invisible: for every runnable corpus app the
	// guarded run's sink trace, console and violation log are byte-identical
	// to the unguarded run — the guard observes, it never perturbs
	generous := guard.Limits{
		Fuel:          1 << 50,
		MaxDepth:      1 << 20,
		MaxAlloc:      1 << 50,
		DeadlineTicks: 1 << 60,
	}
	apps := corpus.Runnable(corpus.All())
	if len(apps) == 0 {
		t.Fatal("no runnable corpus apps")
	}
	const messages = 10
	_, err := mapIndexed(len(apps), 0, func(i int) (struct{}, error) {
		app := apps[i]
		plain, err := corpusRecord(app, nil, messages)
		if err != nil {
			return struct{}{}, err
		}
		guarded, err := corpusRecord(app, &generous, messages)
		if err != nil {
			return struct{}{}, err
		}
		if plain != guarded {
			return struct{}{}, fmt.Errorf("%s: guarded record diverged:\n--- unguarded\n%s--- guarded\n%s",
				app.Name, plain, guarded)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
