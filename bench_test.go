// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), plus ablations of the design decisions called out in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// The full experiment runs (paper-scale message counts, all 27 apps) live
// in cmd/turnstile-bench; the benchmarks here exercise the same code paths
// at a size suited to `go test -bench`.
package turnstile_test

import (
	"runtime"
	"testing"
	"time"

	"turnstile/internal/baseline"
	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/dift"
	"turnstile/internal/ghindex"
	"turnstile/internal/harness"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/taint"
	"turnstile/internal/workload"
)

// ---------------------------------------------------------------------------
// Table 2: framework popularity (synthetic GitHub index search)

func BenchmarkTable2FrameworkSearch(b *testing.B) {
	idx := ghindex.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := ghindex.Table2(idx)
		if rows[0].Repos != 677 {
			b.Fatalf("Node-RED repos = %d", rows[0].Repos)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 10 / E1: path detection over the 61-app corpus

func corpusFiles(b *testing.B) [][]taint.File {
	b.Helper()
	apps := corpus.All()
	out := make([][]taint.File, len(apps))
	for i, a := range apps {
		files, err := a.Files()
		if err != nil {
			b.Fatal(err)
		}
		out[i] = files
	}
	return out
}

func BenchmarkFigure10PathDetection(b *testing.B) {
	all := corpusFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, files := range all {
			total += len(taint.Analyze(files, taint.DefaultOptions()).Paths)
		}
		if total != 190 {
			b.Fatalf("turnstile total = %d", total)
		}
	}
}

// Analysis-time comparison (§6.1 "Computation Time"): the same corpus
// through each analyzer.

func BenchmarkAnalysisTimeTurnstile(b *testing.B) {
	all := corpusFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, files := range all {
			taint.Analyze(files, taint.DefaultOptions())
		}
	}
}

func BenchmarkAnalysisTimeCodeQL(b *testing.B) {
	all := corpusFiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, files := range all {
			baseline.Analyze(files)
		}
	}
}

// ---------------------------------------------------------------------------
// Parallel experiment harness: the end-to-end E1 path under the bounded
// worker pool. Compare Sequential vs Parallel for the fan-out speedup (the
// acceptance target is >= 2x on a >= 4-core machine).

func benchRunE1(b *testing.B, parallel int) {
	apps := corpus.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.RunE1(apps, parallel)
		if err != nil {
			b.Fatal(err)
		}
		if res.TurnstileTotal != 190 {
			b.Fatalf("turnstile total = %d", res.TurnstileTotal)
		}
	}
}

func BenchmarkRunE1Sequential(b *testing.B) { benchRunE1(b, 1) }

func BenchmarkRunE1Parallel(b *testing.B) { benchRunE1(b, runtime.GOMAXPROCS(0)) }

// BenchmarkPrepareApp times the three-version preparation of one app:
// parse, analysis, instrumentation and deployment of all three versions.
func BenchmarkPrepareApp(b *testing.B) {
	app := corpus.ByName(corpus.All(), "modbus")
	for i := 0; i < b.N; i++ {
		if _, err := harness.PrepareApp(app, false); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMeasureApps(b *testing.B, parallel int) {
	apps := corpus.All()
	subset := []*corpus.App{
		corpus.ByName(apps, "nlp.js"),
		corpus.ByName(apps, "modbus"),
		corpus.ByName(apps, "watson"),
		corpus.ByName(apps, "sensor-logger"),
	}
	opts := harness.E2Options{Messages: 30, Warmup: 5, Repeats: 1,
		ServiceScale: harness.DefaultServiceScale,
		Parallel:     parallel}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := harness.MeasureApps(subset, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) != len(subset) {
			b.Fatalf("measured %d apps", len(ms))
		}
	}
}

func BenchmarkMeasureAppsSequential(b *testing.B) { benchMeasureApps(b, 1) }
func BenchmarkMeasureAppsParallel(b *testing.B)   { benchMeasureApps(b, runtime.GOMAXPROCS(0)) }

// ---------------------------------------------------------------------------
// Figures 11 and 12 / E2: run-time overhead

// measureSubset measures a contrasting subset of the 27 apps (a dictionary-
// heavy app, a decode-heavy app, a light app) with a bench-sized workload.
func measureSubset(b *testing.B, names ...string) []harness.AppMeasurement {
	b.Helper()
	apps := corpus.All()
	opts := harness.E2Options{Messages: 30, Warmup: 5, Repeats: 1,
		ServiceScale: harness.DefaultServiceScale}
	var ms []harness.AppMeasurement
	for _, name := range names {
		app := corpus.ByName(apps, name)
		if app == nil {
			b.Fatalf("unknown app %q", name)
		}
		m, err := harness.MeasureApp(app, opts)
		if err != nil {
			b.Fatal(err)
		}
		ms = append(ms, *m)
	}
	return ms
}

func BenchmarkFigure11OverheadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms := measureSubset(b, "nlp.js", "modbus", "sensor-logger")
		points := harness.Figure11(ms, workload.Rates)
		if len(points) != len(workload.Rates) {
			b.Fatal("missing rate points")
		}
	}
}

func BenchmarkFigure12PerApp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms := measureSubset(b, "nlp.js", "watson")
		rows := harness.Figure12(ms)
		if len(rows) != 2 {
			b.Fatal("missing rows")
		}
	}
}

// Per-message end-to-end cost of the three versions of one app — the raw
// quantity behind Figs. 11 and 12.

func runnerFor(b *testing.B, name string) *harness.PreparedApp {
	b.Helper()
	app := corpus.ByName(corpus.All(), name)
	prep, err := harness.PrepareApp(app, false)
	if err != nil {
		b.Fatal(err)
	}
	return prep
}

func benchMessages(b *testing.B, r *harness.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := r.Process(i % 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageOriginal(b *testing.B) {
	benchMessages(b, runnerFor(b, "camera-archiver").Original)
}
func BenchmarkMessageSelective(b *testing.B) {
	benchMessages(b, runnerFor(b, "camera-archiver").Selective)
}
func BenchmarkMessageExhaustive(b *testing.B) {
	benchMessages(b, runnerFor(b, "camera-archiver").Exhaustive)
}

// The nlp.js blowup in isolation (§6.2).
func BenchmarkNlpSelective(b *testing.B)  { benchMessages(b, runnerFor(b, "nlp.js").Selective) }
func BenchmarkNlpExhaustive(b *testing.B) { benchMessages(b, runnerFor(b, "nlp.js").Exhaustive) }

// ---------------------------------------------------------------------------
// Ablation 1: selective vs exhaustive instrumentation cost (static)

func BenchmarkInstrumentSelective(b *testing.B)  { benchInstrument(b, instrument.Selective) }
func BenchmarkInstrumentExhaustive(b *testing.B) { benchInstrument(b, instrument.Exhaustive) }

func benchInstrument(b *testing.B, mode instrument.Mode) {
	app := corpus.ByName(corpus.All(), "modbus")
	files, err := app.Files()
	if err != nil {
		b.Fatal(err)
	}
	prog := files[0].Prog
	res := taint.Analyze(files, taint.DefaultOptions())
	sel := instrument.Selection(res.SelectionFor(files[0].Name))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := instrument.Instrument(prog, instrument.Options{Mode: mode, Selection: sel}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation 2: cached DAG reachability (§4.4 — O(V+E) first check, O(1) after)

func benchPolicyGraph(b *testing.B, warm bool) {
	rules := make([]policy.Rule, 0, 64)
	labels := make([]policy.Label, 65)
	for i := range labels {
		labels[i] = policy.Label(string(rune('A'+i%26)) + string(rune('0'+i/26)))
	}
	for i := 0; i+1 < len(labels); i++ {
		rules = append(rules, policy.Rule{From: labels[i], To: labels[i+1]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			b.StopTimer()
			g, err := policy.NewGraph(rules) // fresh graph: cold cache
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			g.CanFlow(labels[0], labels[len(labels)-1])
		} else {
			if i == 0 {
				b.StopTimer()
				warmGraph, _ = policy.NewGraph(rules)
				warmGraph.CanFlow(labels[0], labels[len(labels)-1])
				b.StartTimer()
			}
			warmGraph.CanFlow(labels[0], labels[len(labels)-1])
		}
	}
}

var warmGraph *policy.Graph

func BenchmarkPolicyCheckCold(b *testing.B) { benchPolicyGraph(b, false) }
func BenchmarkPolicyCheckWarm(b *testing.B) { benchPolicyGraph(b, true) }

// ---------------------------------------------------------------------------
// Ablation 3: value-type boxing cost (§4.4)

func BenchmarkBoxedVsReference(b *testing.B) {
	p, err := policy.New(nil, []policy.Rule{{From: "a", To: "b"}}, nil, policy.FlowComparable)
	if err != nil {
		b.Fatal(err)
	}
	tr := dift.NewTracker(p, interp.Adapter{})
	ls := policy.NewLabelSet("a")
	obj := interp.NewObject()
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Attach(obj, ls)
		}
	})
	b.Run("boxed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Attach(42.0, ls) // allocates a Box each time
		}
	})
}

// ---------------------------------------------------------------------------
// Ablation 4: type-sensitive interprocedural analysis (§6.1)

func BenchmarkTaintTypeSensitive(b *testing.B)   { benchTaint(b, true) }
func BenchmarkTaintTypeInsensitive(b *testing.B) { benchTaint(b, false) }

func benchTaint(b *testing.B, typeSensitive bool) {
	app := corpus.ByName(corpus.All(), "camera-archiver")
	files, err := app.Files()
	if err != nil {
		b.Fatal(err)
	}
	opts := taint.DefaultOptions()
	opts.TypeSensitive = typeSensitive
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		taint.Analyze(files, opts)
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks

func BenchmarkParseCorpusApp(b *testing.B) {
	app := corpus.ByName(corpus.All(), "modbus")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse("modbus.js", app.Source); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpFibonacci(b *testing.B) {
	prog := parser.MustParse("fib.js", `
function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
fib(15);
`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := interp.New()
		if err := ip.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueueSimulation(b *testing.B) {
	s := make(workload.Service, 1000)
	for i := range s {
		s[i] = time.Duration(100+i%700) * time.Microsecond
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, hz := range workload.Rates {
			workload.CompletionTime(s, hz)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation 5: implicit-flow tracking overhead (§8 extension)

func BenchmarkExplicitFlowsOnly(b *testing.B) { benchImplicit(b, false) }
func BenchmarkImplicitFlows(b *testing.B)     { benchImplicit(b, true) }

func benchImplicit(b *testing.B, implicit bool) {
	src := `
const net = require("net");
const fs = require("fs");
const out = fs.createWriteStream("/door");
const sock = net.connect({ host: "cam", port: 554 });
sock.on("data", frame => {
  let state = "closed";
  for (let i = 0; i < frame.length; i++) {
    if (frame[i] === "E") { state = "open"; }
  }
  out.write(state + ":" + frame.length);
});
`
	opts := core.DefaultOptions()
	opts.Enforce = false
	opts.ImplicitFlows = implicit
	app, err := core.Manage(map[string]string{"door.js": src},
		`{"labellers":{"F":"v => \"secret\""},"rules":["public -> secret"],"injections":[{"object":"frame","labeller":"F"}]}`,
		opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.Emit("net.socket:cam:554", "data", "xxExxxxExx"); err != nil {
			b.Fatal(err)
		}
	}
}
