package harness

import (
	"fmt"
	"strings"

	"turnstile/internal/corpus"
	"turnstile/internal/telemetry"
)

// This file implements the per-app overhead breakdown behind
// `turnstile-bench -metrics`: every runnable app's selective and
// exhaustive versions are replayed with the telemetry layer attached, and
// the instrumented-vs-original cost is attributed to individual DIFT
// operations. The attribution is count-based with a fixed documented cost
// model, never wall-clock-based, so the rendered table is byte-identical
// across runs, worker counts and machines — the property the golden test
// and TestReportMatrix compare directly.

// OpOrder is the canonical tracker-op column order of the breakdown table.
var OpOrder = []string{"label", "binaryOp", "assign", "check", "invoke", "track", "box"}

// OpWeights is the deterministic cost model: relative units per tracker
// operation, calibrated once against BenchmarkDIFTOps (label resolves a
// labeller and attaches; check and invoke walk the data labels and consult
// the policy graph; track and box heap-allocate a wrapper; binaryOp and
// assign are single label-map unions).
var OpWeights = map[string]int64{
	"label":    4,
	"binaryOp": 1,
	"assign":   1,
	"check":    3,
	"invoke":   5,
	"track":    2,
	"box":      2,
}

// BreakdownVersion is the telemetry snapshot of one instrumented version's
// replay.
type BreakdownVersion struct {
	// Ops maps tracker op → count (the dift.* counters, prefix stripped).
	Ops map[string]int64
	// Units is the weighted cost attribution: Σ count × OpWeights[op].
	Units int64
	// HostCalls / SinkWrites / Violations are the runtime counters.
	HostCalls  int64
	SinkWrites int64
	Violations int64
	// CacheHits / CacheMisses count policy reachability-cache lookups.
	CacheHits, CacheMisses int64
	// TraceEvents is the tracer's total (0 when tracing was off).
	TraceEvents int64
}

// TopOp returns the op with the largest weighted contribution and its
// share of Units (ties broken by op name, keeping output deterministic).
func (v *BreakdownVersion) TopOp() (string, float64) {
	if v.Units == 0 {
		return "-", 0
	}
	best, bestUnits := "", int64(-1)
	for _, op := range OpOrder {
		u := v.Ops[op] * OpWeights[op]
		if u > bestUnits {
			best, bestUnits = op, u
		}
	}
	return best, 100 * float64(bestUnits) / float64(v.Units)
}

// BreakdownRow is one app's breakdown.
type BreakdownRow struct {
	App        string
	Selective  BreakdownVersion
	Exhaustive BreakdownVersion
	// SelectiveTrace is the selective version's exported trace JSON (nil
	// unless BreakdownOptions.TraceCapacity was set).
	SelectiveTrace []byte
}

// BreakdownResult aggregates a breakdown run.
type BreakdownResult struct {
	Messages int
	Rows     []BreakdownRow
}

// BreakdownOptions configures RunBreakdown.
type BreakdownOptions struct {
	// Messages pumped through each version (default 40).
	Messages int
	// Parallel is the worker count; 0 selects GOMAXPROCS, 1 runs
	// sequentially. Output is index-deterministic either way.
	Parallel int
	// TraceCapacity > 0 also attaches a structured tracer to each version
	// and exports the selective version's trace into the row.
	TraceCapacity int
	// NoVM runs every version on the tree-walking evaluator (-novm).
	NoVM bool
}

// RunBreakdown replays every runnable app's selective and exhaustive
// versions under the telemetry layer and attributes the instrumented cost
// to tracker ops. The original version needs no replay: it executes zero
// tracker ops by construction, so the op counts are the
// instrumented-minus-original delta.
func RunBreakdown(apps []*corpus.App, opts BreakdownOptions) (*BreakdownResult, error) {
	if opts.Messages <= 0 {
		opts.Messages = 40
	}
	runnable := corpus.Runnable(apps)
	rows, err := mapIndexed(len(runnable), opts.Parallel, func(i int) (BreakdownRow, error) {
		return breakdownApp(runnable[i], opts)
	})
	if err != nil {
		return nil, err
	}
	return &BreakdownResult{Messages: opts.Messages, Rows: rows}, nil
}

func breakdownApp(app *corpus.App, opts BreakdownOptions) (BreakdownRow, error) {
	prep, err := PrepareApp(app, opts.NoVM)
	if err != nil {
		return BreakdownRow{}, fmt.Errorf("harness: %s: %w", app.Name, err)
	}
	row := BreakdownRow{App: app.Name}
	for _, v := range []struct {
		runner *Runner
		out    *BreakdownVersion
		export bool
	}{
		{prep.Selective, &row.Selective, true},
		{prep.Exhaustive, &row.Exhaustive, false},
	} {
		snap, trace, err := replayWithTelemetry(v.runner, opts.Messages, opts.TraceCapacity)
		if err != nil {
			return BreakdownRow{}, fmt.Errorf("harness: %s (%s): %w", app.Name, v.runner.Mode, err)
		}
		*v.out = *snap
		if v.export && trace != nil {
			if row.SelectiveTrace, err = trace.ExportJSON(); err != nil {
				return BreakdownRow{}, fmt.Errorf("harness: %s: trace export: %w", app.Name, err)
			}
		}
	}
	return row, nil
}

// replayWithTelemetry attaches a fresh metrics registry (and optional
// tracer) to a prepared runner, pumps the workload, and snapshots the
// counters.
func replayWithTelemetry(r *Runner, messages, traceCap int) (*BreakdownVersion, *telemetry.Tracer, error) {
	m := telemetry.NewMetrics()
	var tracer *telemetry.Tracer
	if traceCap > 0 {
		tracer = telemetry.NewTracer(traceCap, r.IP.Clock.Now)
	}
	r.IP.EnableTelemetry(m, tracer)
	defer r.IP.EnableTelemetry(nil, nil)
	for i := 0; i < messages; i++ {
		// audit-mode runners surface violations through the tracker, not as
		// errors; anything returned here is a real runtime failure
		if err := r.Process(i); err != nil {
			return nil, nil, err
		}
	}
	// fold the interpreter's fast-path counters ("interp.*") into the
	// registry; the breakdown tables only render "dift."-prefixed counters,
	// so their byte-identity across execution modes is unaffected
	r.IP.FlushEnvTelemetry()
	snap := snapshotVersion(m)
	if r.IP.Tracker != nil {
		snap.Violations = int64(len(r.IP.Tracker.Violations()))
	}
	if tracer != nil {
		snap.TraceEvents = tracer.Total()
	}
	return snap, tracer, nil
}

// snapshotVersion extracts the breakdown quantities from a registry.
func snapshotVersion(m *telemetry.Metrics) *BreakdownVersion {
	v := &BreakdownVersion{Ops: make(map[string]int64, len(OpOrder))}
	for op, n := range m.CountersWithPrefix("dift.") {
		if _, known := OpWeights[op]; known {
			v.Ops[op] = n
			v.Units += n * OpWeights[op]
		}
	}
	v.HostCalls = m.SumWithPrefix("host.")
	v.SinkWrites = m.SumWithPrefix("sink.")
	v.CacheHits = m.CounterValue("policy.cache.hit")
	v.CacheMisses = m.CounterValue("policy.cache.miss")
	return v
}

// RenderBreakdown formats the per-app overhead-breakdown tables. Output
// is a pure function of op counts — no measured durations — so it is
// byte-identical across runs and -parallel counts.
func RenderBreakdown(res *BreakdownResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overhead breakdown: tracker-op attribution, %d messages per app\n", res.Messages)
	b.WriteString("(cost units:")
	for _, op := range OpOrder {
		fmt.Fprintf(&b, " %s=%d", op, OpWeights[op])
	}
	b.WriteString(")\n")
	renderMode := func(title string, pick func(*BreakdownRow) *BreakdownVersion) {
		fmt.Fprintf(&b, "\n%s instrumentation\n", title)
		fmt.Fprintf(&b, "%-18s |", "application")
		for _, op := range OpOrder {
			fmt.Fprintf(&b, " %8s", op)
		}
		fmt.Fprintf(&b, " | %8s  %s\n", "units", "top op (share)")
		totals := make(map[string]int64, len(OpOrder))
		var totalUnits int64
		for i := range res.Rows {
			v := pick(&res.Rows[i])
			fmt.Fprintf(&b, "%-18s |", res.Rows[i].App)
			for _, op := range OpOrder {
				fmt.Fprintf(&b, " %8d", v.Ops[op])
				totals[op] += v.Ops[op]
			}
			totalUnits += v.Units
			top, share := v.TopOp()
			fmt.Fprintf(&b, " | %8d  %s (%.1f%%)\n", v.Units, top, share)
		}
		fmt.Fprintf(&b, "%-18s |", "TOTAL")
		for _, op := range OpOrder {
			fmt.Fprintf(&b, " %8d", totals[op])
		}
		fmt.Fprintf(&b, " | %8d\n", totalUnits)
	}
	renderMode("selective", func(r *BreakdownRow) *BreakdownVersion { return &r.Selective })
	renderMode("exhaustive", func(r *BreakdownRow) *BreakdownVersion { return &r.Exhaustive })

	b.WriteString("\nruntime counters (selective / exhaustive)\n")
	fmt.Fprintf(&b, "%-18s | %15s %15s %15s %15s %15s\n",
		"application", "host-calls", "sink-writes", "cache-hit", "cache-miss", "violations")
	for i := range res.Rows {
		r := &res.Rows[i]
		pair := func(a, c int64) string { return fmt.Sprintf("%d / %d", a, c) }
		fmt.Fprintf(&b, "%-18s | %15s %15s %15s %15s %15s\n", r.App,
			pair(r.Selective.HostCalls, r.Exhaustive.HostCalls),
			pair(r.Selective.SinkWrites, r.Exhaustive.SinkWrites),
			pair(r.Selective.CacheHits, r.Exhaustive.CacheHits),
			pair(r.Selective.CacheMisses, r.Exhaustive.CacheMisses),
			pair(r.Selective.Violations, r.Exhaustive.Violations))
	}
	return b.String()
}
