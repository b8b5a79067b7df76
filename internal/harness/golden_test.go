package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"turnstile/internal/corpus"
)

var updateGolden = flag.Bool("update", false, "rewrite the harness golden files")

// checkGolden compares rendered output against testdata/<name>.golden,
// rewriting the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/harness -run Golden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from golden file %s:\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}

// TestGoldenTable2 pins the Table 2 rendering, which is fully
// deterministic from the synthetic GitHub index.
func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2", RenderTable2(RunTable2()))
}

// TestGoldenFigure10 pins the deterministic E1 detection table over the
// real corpus (counts only — no measured durations).
func TestGoldenFigure10(t *testing.T) {
	res, err := RunE1(corpus.All(), 4)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure10", RenderFigure10(res))
}

// fixedE1Result builds a small synthetic E1 result with pinned durations
// so the full RenderE1 output (timing summary included) is reproducible.
func fixedE1Result() *E1Result {
	return &E1Result{
		Rows: []Figure10Row{
			{App: "modbus", Category: "turnstile-only", Manual: 13, Turnstile: 13, Baseline: 0,
				TurnstileDur: 2 * time.Millisecond, BaselineDur: 140 * time.Millisecond},
			{App: "smart-dashboard", Category: "both-found", Manual: 5, Turnstile: 2, Baseline: 5,
				TurnstileDur: time.Millisecond, BaselineDur: 60 * time.Millisecond},
		},
		ManualTotal: 18, TurnstileTotal: 15, BaselineTotal: 5,
		TurnstileMean: 1500 * time.Microsecond, TurnstileMax: 2 * time.Millisecond,
		BaselineMean: 100 * time.Millisecond, BaselineMax: 140 * time.Millisecond,
		Speedup:           66.7,
		AppsOnlyTurnstile: 1, AppsBothFound: 1,
	}
}

// TestGoldenE1Timing pins the full E1 rendering, timing lines included,
// over a fixed synthetic result.
func TestGoldenE1Timing(t *testing.T) {
	checkGolden(t, "e1_timing", RenderE1(fixedE1Result()))
}

// TestGoldenFigure11 pins the Fig. 11 band rendering over fixed points.
func TestGoldenFigure11(t *testing.T) {
	points := []Figure11Point{
		{Rate: 2, SelMin: 0.998, SelMedian: 1.002, SelMax: 1.010, ExhMin: 1.000, ExhMedian: 1.015, ExhMax: 1.090},
		{Rate: 30, SelMin: 1.001, SelMedian: 1.021, SelMax: 1.158, ExhMin: 1.004, ExhMedian: 1.214, ExhMax: 2.538},
		{Rate: 1000, SelMin: 1.003, SelMedian: 1.220, SelMax: 1.913, ExhMin: 1.080, ExhMedian: 2.630, ExhMax: 9.770},
	}
	checkGolden(t, "figure11", RenderFigure11(points))
}

// TestGoldenFigure12 pins the Fig. 12 per-app rendering over fixed rows.
func TestGoldenFigure12(t *testing.T) {
	rows := []Figure12Row{
		{App: "modbus", Sel30: 1.158, Exh30: 2.538, Sel250: 1.287, Exh250: 4.102},
		{App: "nlp.js", Sel30: 1.008, Exh30: 1.742, Sel250: 1.031, Exh250: 3.215},
		{App: "sensor-logger", Sel30: 1.002, Exh30: 1.031, Sel250: 1.006, Exh250: 1.084},
	}
	checkGolden(t, "figure12", RenderFigure12(rows))
}
