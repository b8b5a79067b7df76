package harness

import (
	"strings"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/faults"
)

// TestChaosEquivalenceAllApps extends the non-invasiveness check to the
// failure paths: every runnable app, original vs selective vs exhaustive,
// under the same seeded fault schedule.
func TestChaosEquivalenceAllApps(t *testing.T) {
	res, err := RunChaos(corpus.All(), ChaosOptions{Seed: 3, Messages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) == 0 {
		t.Fatal("no runnable apps")
	}
	for _, a := range res.Apps {
		if !a.Equivalent {
			t.Errorf("%s diverged under faults:\n%s", a.App, a.Mismatch)
		}
	}
	// the schedules must actually exercise failure paths, or the check is
	// vacuous
	var injected int
	for _, a := range res.Apps {
		injected += a.Stats.Failed + a.Stats.Dropped + a.Stats.Delayed
	}
	if injected == 0 {
		t.Fatal("no faults fired across the whole corpus")
	}
}

// TestChaosDeterministicAcrossParallel: one -faultseed produces a
// byte-identical chaos report run after run, and another seed changes it.
// The same report at other worker counts and on the tree-walker is a row
// of TestReportMatrix.
func TestChaosDeterministicAcrossParallel(t *testing.T) {
	apps := corpus.Runnable(corpus.All())[:6]
	render := func(parallel int) string {
		res, err := RunChaos(apps, ChaosOptions{Seed: 11, Messages: 10, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return RenderChaos(res)
	}
	seq := render(1)
	if again := render(1); again != seq {
		t.Fatal("repeated run diverged")
	}
	// a different seed must change the fault sequence
	other, err := RunChaos(apps, ChaosOptions{Seed: 12, Messages: 10})
	if err != nil {
		t.Fatal(err)
	}
	if RenderChaos(other) == seq {
		t.Fatal("seed has no effect on the chaos report")
	}
}

// TestChaosFixedScheduleOverride drives every app with one explicit
// schedule instead of the generated per-app ones.
func TestChaosFixedScheduleOverride(t *testing.T) {
	apps := corpus.Runnable(corpus.All())[:3]
	schedule := &faults.Schedule{Rules: []faults.Rule{
		{Module: "fs", Op: "stream.write", Mode: faults.ModeDrop},
	}}
	res, err := RunChaos(apps, ChaosOptions{Seed: 1, Messages: 5, Schedule: schedule})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if !a.Equivalent {
			t.Errorf("%s diverged: %s", a.App, a.Mismatch)
		}
		if a.Stats.Dropped == 0 {
			t.Errorf("%s: fixed drop-all schedule injected nothing (stats %+v)", a.App, a.Stats)
		}
	}
	out := RenderChaos(res)
	if !strings.Contains(out, "equivalent under faults: 3/3") {
		t.Fatalf("report = %s", out)
	}
}
