package harness

import (
	"strings"
	"testing"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/printer"
	"turnstile/internal/workload"
)

func TestRunTable2(t *testing.T) {
	rows := RunTable2()
	out := RenderTable2(rows)
	for _, want := range []string{"Node-RED", "2676", "677", "58.9%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunE1HeadlineClaims(t *testing.T) {
	res, err := RunE1(corpus.All(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// claim C1: 190 vs 52 of 285 manual (≈3× more paths)
	if res.ManualTotal != 285 || res.TurnstileTotal != 190 || res.BaselineTotal != 52 {
		t.Fatalf("totals = %d/%d/%d, want 285/190/52",
			res.ManualTotal, res.TurnstileTotal, res.BaselineTotal)
	}
	if ratio := float64(res.TurnstileTotal) / float64(res.BaselineTotal); ratio < 3 {
		t.Fatalf("path ratio = %.2f, want > 3", ratio)
	}
	// 22 apps where only Turnstile found paths (§6.1 reports 22)
	if res.AppsOnlyTurnstile != 22 {
		t.Fatalf("turnstile-only apps = %d, want 22", res.AppsOnlyTurnstile)
	}
	if res.AppsBothFound != 5 {
		t.Fatalf("both-found apps = %d, want 5", res.AppsBothFound)
	}
	// 32 apps where neither found paths
	if res.AppsNeither != 32 {
		t.Fatalf("neither apps = %d, want 32", res.AppsNeither)
	}
	// Turnstile is much faster than the baseline
	if res.Speedup < 3 {
		t.Fatalf("speedup = %.1fx, want >3x (baseline mean %v vs turnstile %v)",
			res.Speedup, res.BaselineMean, res.TurnstileMean)
	}
	out := RenderE1(res)
	for _, want := range []string{"TOTAL", "190", "52", "285", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q", want)
		}
	}
}

func TestPrepareAppVersions(t *testing.T) {
	apps := corpus.All()
	app := corpus.ByName(apps, "camera-archiver")
	prep, err := PrepareApp(app, false)
	if err != nil {
		t.Fatal(err)
	}
	if prep.SelectiveResult.Invokes == 0 {
		t.Fatal("selective version has no instrumented calls")
	}
	if prep.ExhaustiveResult.Invokes <= prep.SelectiveResult.Invokes {
		t.Fatalf("exhaustive should instrument more: %d vs %d",
			prep.ExhaustiveResult.Invokes, prep.SelectiveResult.Invokes)
	}
	// all three versions process messages and produce identical output
	for i := 0; i < 5; i++ {
		for _, r := range []*Runner{prep.Original, prep.Selective, prep.Exhaustive} {
			if err := r.Process(i); err != nil {
				t.Fatalf("%s message %d: %v", r.Mode, i, err)
			}
		}
	}
	origW := prep.Original.IP.IO.WritesTo("fs")
	for _, r := range []*Runner{prep.Selective, prep.Exhaustive} {
		w := r.IP.IO.WritesTo("fs")
		if len(w) != len(origW) {
			t.Fatalf("%s writes = %d, original = %d", r.Mode, len(w), len(origW))
		}
		for i := range w {
			if w[i].Value != origW[i].Value {
				t.Fatalf("%s write %d = %v, original %v", r.Mode, i, w[i].Value, origW[i].Value)
			}
		}
	}
	// the instrumented versions actually track: labels were applied
	if prep.Selective.IP.Tracker.Stats().Labelled == 0 {
		t.Fatal("selective version never labelled")
	}
	if prep.Exhaustive.IP.Tracker.Stats().Boxed == 0 {
		t.Fatal("exhaustive version never boxed a value")
	}
}

func TestPrepareNonRunnable(t *testing.T) {
	app := corpus.ByName(corpus.All(), "dashboard-api")
	if _, err := PrepareApp(app, false); err == nil {
		t.Fatal("expected error for non-runnable app")
	}
}

func TestMeasureAndFigures(t *testing.T) {
	// small-but-real E2 over three contrasting apps
	apps := corpus.All()
	subset := []*corpus.App{
		corpus.ByName(apps, "nlp.js"),
		corpus.ByName(apps, "modbus"),
		corpus.ByName(apps, "sensor-logger"),
	}
	opts := E2Options{Messages: 40, Warmup: 5, Repeats: 1}
	var ms []AppMeasurement
	for _, app := range subset {
		m, err := MeasureApp(app, opts)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, *m)
	}
	points := Figure11(ms, workload.Rates)
	if len(points) != len(workload.Rates) {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.SelMin > p.SelMedian || p.SelMedian > p.SelMax {
			t.Fatalf("selective band disordered at %.0f Hz: %+v", p.Rate, p)
		}
		if p.ExhMin > p.ExhMedian || p.ExhMedian > p.ExhMax {
			t.Fatalf("exhaustive band disordered at %.0f Hz: %+v", p.Rate, p)
		}
		if p.SelMin < 0.5 {
			t.Fatalf("implausible relative runtime at %.0f Hz: %+v", p.Rate, p)
		}
	}
	// at the lowest rate the stream is idle-dominated: overhead ≈ 0
	if points[0].SelMedian > 1.15 {
		t.Fatalf("2 Hz selective median = %.3f, want ≈1", points[0].SelMedian)
	}
	// selective must beat exhaustive on the dictionary-heavy app at speed
	var nlp *AppMeasurement
	for i := range ms {
		if ms[i].App == "nlp.js" {
			nlp = &ms[i]
		}
	}
	selHigh := nlp.RelSelective(1000)
	exhHigh := nlp.RelExhaustive(1000)
	if exhHigh < selHigh {
		t.Fatalf("nlp.js at 1000 Hz: exhaustive %.3f should exceed selective %.3f", exhHigh, selHigh)
	}
	rows := Figure12(ms)
	if len(rows) != 3 {
		t.Fatalf("figure 12 rows = %d", len(rows))
	}
	out11 := RenderFigure11(points)
	out12 := RenderFigure12(rows)
	if !strings.Contains(out11, "rate Hz") || !strings.Contains(out12, "nlp.js") {
		t.Fatalf("render output wrong:\n%s\n%s", out11, out12)
	}
	sum := Summarize(ms, points)
	if sum.WorstExhaustive30 == 0 || sum.MedianSelLow == 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestPrepareAppBadPolicy(t *testing.T) {
	app := &corpus.App{
		Name:       "broken",
		Runnable:   true,
		Source:     "let x = 1;",
		PolicyJSON: "{not json",
		SourceName: "none",
	}
	if _, err := PrepareApp(app, false); err == nil {
		t.Fatal("expected policy error")
	}
}

func TestPrepareAppMissingSource(t *testing.T) {
	app := &corpus.App{
		Name:       "nosource",
		Runnable:   true,
		Source:     "let x = 1;",
		PolicyJSON: `{"rules":[]}`,
		SourceName: "net.socket:ghost:1",
	}
	if _, err := PrepareApp(app, false); err == nil {
		t.Fatal("expected unknown-source error")
	}
}

func TestMeasureAppPropagatesRuntimeErrors(t *testing.T) {
	app := &corpus.App{
		Name:     "crasher",
		Runnable: true,
		Source: `
const net = require("net");
const sock = net.connect({ host: "h", port: 1 });
sock.on("data", frame => { throw new Error("boom on " + frame); });
`,
		PolicyJSON: `{"rules":[]}`,
		SourceName: "net.socket:h:1",
	}
	_, err := MeasureApp(app, E2Options{Messages: 3, Warmup: 1, Repeats: 1, ServiceScale: 1})
	if err == nil {
		t.Fatal("handler throw should surface from measurement")
	}
}

// TestRunnerModes pins the three versions' posture: the original runs
// untracked, the instrumented versions audit without enforcing (§6.2) and
// deploy exactly what core.Manage deploys, and -novm reaches every
// runner, so a walker run never executes bytecode.
func TestRunnerModes(t *testing.T) {
	app := corpus.ByName(corpus.All(), "sensor-logger")
	prep, err := PrepareApp(app, false)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Original.Mode != "original" || prep.Selective.Mode != "selective" || prep.Exhaustive.Mode != "exhaustive" {
		t.Fatalf("modes: %q %q %q", prep.Original.Mode, prep.Selective.Mode, prep.Exhaustive.Mode)
	}
	if prep.Analysis == nil || len(prep.Analysis.Paths) == 0 {
		t.Fatal("analysis missing")
	}
	if prep.Original.IP.Tracker != nil {
		t.Error("original version has a tracker")
	}
	file := app.Name + ".js"
	for _, v := range []struct {
		r    *Runner
		res  *instrument.Result
		mode instrument.Mode
	}{
		{prep.Selective, prep.SelectiveResult, instrument.Selective},
		{prep.Exhaustive, prep.ExhaustiveResult, instrument.Exhaustive},
	} {
		if tr := v.r.IP.Tracker; tr == nil {
			t.Errorf("%s: no tracker installed", v.r.Mode)
		} else if tr.Enforce {
			t.Errorf("%s: tracker enforces, want audit mode (§6.2)", v.r.Mode)
		}
		opts := core.DefaultOptions()
		opts.Mode, opts.Enforce = v.mode, false
		m, err := core.Manage(map[string]string{file: app.Source}, app.PolicyJSON, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := printer.Print(v.res.Program), m.Instrumented[file]; got != want {
			t.Errorf("%s: prepared program differs from core.Manage's:\n%s\n--- core.Manage\n%s", v.r.Mode, got, want)
		}
	}

	walk, err := PrepareApp(app, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Runner{walk.Original, walk.Selective, walk.Exhaustive} {
		if !r.IP.NoVM {
			t.Errorf("%s: noVM preparation left the VM on", r.Mode)
		}
	}
	for _, r := range []*Runner{prep.Original, prep.Selective, prep.Exhaustive} {
		if r.IP.NoVM {
			t.Errorf("%s: VM preparation runs on the walker", r.Mode)
		}
	}
}
