package harness

import (
	"fmt"
	"strings"

	"turnstile/internal/corpus"
	"turnstile/internal/faults"
)

// Chaos mode replays the runnable corpus under deterministic fault
// injection and extends the paper's non-invasiveness check (E1's
// sink-trace equivalence) from happy paths to failure paths: for every
// app, the original, selective and exhaustive versions run against the
// same seeded fault schedule, and the harness asserts that sink traces,
// fault traces and per-message error outcomes all match. Instrumentation
// adds only __t calls — never host operations — so if the three versions
// diverge under faults, the instrumentation changed observable behaviour.

// ChaosOptions configures a chaos replay.
type ChaosOptions struct {
	// Seed drives the per-app generated fault schedules; the same seed
	// yields byte-identical schedules, fault traces and report output.
	Seed int64
	// Messages pumped through each version of each app.
	Messages int
	// Parallel is the worker count; 0 selects GOMAXPROCS, 1 runs
	// sequentially. Output is index-deterministic either way.
	Parallel int
	// Schedule, when non-nil, replaces the generated per-app schedules
	// with one fixed schedule for every app (the -faultschedule file).
	Schedule *faults.Schedule
	// NoVM runs every version on the tree-walking evaluator (-novm).
	NoVM bool
}

// ChaosAppResult is one app's outcome under fault injection.
type ChaosAppResult struct {
	App        string
	Stats      faults.Stats // injector counters from the original version
	FaultTrace string       // deterministic fault event trace
	MsgErrors  int          // messages whose pump returned an error
	SinkWrites int          // sink writes that survived the faults
	Equivalent bool
	Mismatch   string // first divergence, empty when Equivalent
}

// ChaosResult aggregates a chaos replay.
type ChaosResult struct {
	Seed       int64
	Messages   int
	Apps       []ChaosAppResult
	Equivalent int // apps whose three versions stayed in lockstep
}

// RunChaos replays every runnable app under the fault schedule derived
// from opts.Seed and the app name (or opts.Schedule verbatim).
func RunChaos(apps []*corpus.App, opts ChaosOptions) (*ChaosResult, error) {
	if opts.Messages <= 0 {
		opts.Messages = 50
	}
	runnable := corpus.Runnable(apps)
	results, err := mapIndexed(len(runnable), opts.Parallel, func(i int) (ChaosAppResult, error) {
		return chaosApp(runnable[i], opts)
	})
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Seed: opts.Seed, Messages: opts.Messages, Apps: results}
	for i := range results {
		if results[i].Equivalent {
			res.Equivalent++
		}
	}
	return res, nil
}

// chaosVersion is the observable record of one version's run under
// faults: everything that must be identical across the three versions.
type chaosVersion struct {
	mode       string
	sinkTrace  string
	faultTrace string
	msgErrors  []string
	stats      faults.Stats
}

func chaosApp(app *corpus.App, opts ChaosOptions) (ChaosAppResult, error) {
	prep, err := PrepareApp(app, opts.NoVM)
	if err != nil {
		return ChaosAppResult{}, fmt.Errorf("harness: %s: %w", app.Name, err)
	}
	schedule := opts.Schedule
	if schedule == nil {
		schedule = faults.Generate(opts.Seed, app.Name)
	}
	run := func(r *Runner) chaosVersion {
		in := r.IP.InstallFaults(schedule)
		v := chaosVersion{mode: r.Mode}
		for i := 0; i < opts.Messages; i++ {
			if err := r.Process(i); err != nil {
				v.msgErrors = append(v.msgErrors, fmt.Sprintf("msg %d: %v", i, err))
			}
		}
		var b strings.Builder
		for _, w := range r.IP.IO.Writes {
			fmt.Fprintf(&b, "%s.%s %s %v\n", w.Module, w.Op, w.Target, w.Value)
		}
		v.sinkTrace = b.String()
		v.faultTrace = in.TraceString()
		v.stats = in.Stats()
		return v
	}
	orig := run(prep.Original)
	out := ChaosAppResult{
		App:        app.Name,
		Stats:      orig.stats,
		FaultTrace: orig.faultTrace,
		MsgErrors:  len(orig.msgErrors),
		SinkWrites: len(prep.Original.IP.IO.Writes),
		Equivalent: true,
	}
	for _, r := range []*Runner{prep.Selective, prep.Exhaustive} {
		v := run(r)
		if m := diffVersions(&orig, &v); m != "" {
			out.Equivalent = false
			out.Mismatch = m
			break
		}
	}
	return out, nil
}

// diffVersions reports the first observable divergence between the
// original version and a managed one, or "" when they are in lockstep.
func diffVersions(orig, v *chaosVersion) string {
	if orig.faultTrace != v.faultTrace {
		return fmt.Sprintf("%s: fault trace diverged:\n--- original\n%s--- %s\n%s",
			v.mode, orig.faultTrace, v.mode, v.faultTrace)
	}
	if orig.sinkTrace != v.sinkTrace {
		return fmt.Sprintf("%s: sink trace diverged:\n--- original\n%s--- %s\n%s",
			v.mode, orig.sinkTrace, v.mode, v.sinkTrace)
	}
	if len(orig.msgErrors) != len(v.msgErrors) {
		return fmt.Sprintf("%s: %d message errors vs %d", v.mode, len(v.msgErrors), len(orig.msgErrors))
	}
	for i := range orig.msgErrors {
		if orig.msgErrors[i] != v.msgErrors[i] {
			return fmt.Sprintf("%s: message error diverged: %q vs %q", v.mode, v.msgErrors[i], orig.msgErrors[i])
		}
	}
	return ""
}

// RenderChaos formats the chaos report. The output contains no measured
// durations, so it is byte-identical across runs and worker counts for
// one seed — TestReportMatrix compares it directly.
func RenderChaos(res *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos replay: seed %d, %d messages per version\n", res.Seed, res.Messages)
	fmt.Fprintf(&b, "%-18s %6s %6s %6s %6s | %7s %7s | %s\n",
		"application", "ops", "fail", "drop", "delay", "errors", "writes", "equivalence")
	for _, a := range res.Apps {
		verdict := "OK"
		if !a.Equivalent {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(&b, "%-18s %6d %6d %6d %6d | %7d %7d | %s\n",
			a.App, a.Stats.Ops, a.Stats.Failed, a.Stats.Dropped, a.Stats.Delayed,
			a.MsgErrors, a.SinkWrites, verdict)
	}
	fmt.Fprintf(&b, "equivalent under faults: %d/%d apps\n", res.Equivalent, len(res.Apps))
	for _, a := range res.Apps {
		if !a.Equivalent {
			fmt.Fprintf(&b, "\n%s: %s\n", a.App, a.Mismatch)
		}
	}
	return b.String()
}
