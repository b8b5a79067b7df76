package harness

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/telemetry"
)

// Differential battery for the telemetry layer: attaching metrics or the
// tracer must not change anything the paper's equivalence argument relies
// on. For every runnable app, the sink traces and violation reports of the
// selective and exhaustive versions must be byte-identical with telemetry
// off, with metrics on, and with tracing on — sequentially and fanned
// across 8 workers (the -race run of scripts/verify.sh covers the
// concurrent case).

const diffMessages = 30

// telemetryConfig names one way of attaching (or not attaching) the layer.
type telemetryConfig struct {
	name    string
	metrics bool
	trace   bool
}

var telemetryConfigs = []telemetryConfig{
	{name: "off"},
	{name: "metrics", metrics: true},
	{name: "trace", metrics: true, trace: true},
}

// appObservation is everything a telemetry configuration must leave
// untouched, for the three versions of one app.
type appObservation struct {
	app string
	// keyed by version mode: "original", "selective", "exhaustive"
	sinkTraces map[string]string
	violations map[string]string
	msgErrors  map[string]string
}

// observeApp prepares a fresh instance of the app (interpreter state is
// mutated by the pump, so versions are never reused across configs) and
// records the observable outcome of each version under the given config.
func observeApp(app *corpus.App, cfg telemetryConfig) (*appObservation, error) {
	prep, err := PrepareApp(app, false)
	if err != nil {
		return nil, err
	}
	obs := &appObservation{
		app:        app.Name,
		sinkTraces: make(map[string]string),
		violations: make(map[string]string),
		msgErrors:  make(map[string]string),
	}
	for _, r := range []*Runner{prep.Original, prep.Selective, prep.Exhaustive} {
		if cfg.metrics {
			m := telemetry.NewMetrics()
			var tr *telemetry.Tracer
			if cfg.trace {
				tr = telemetry.NewTracer(0, r.IP.Clock.Now)
			}
			r.IP.EnableTelemetry(m, tr)
		}
		var errs strings.Builder
		for i := 0; i < diffMessages; i++ {
			if err := r.Process(i); err != nil {
				fmt.Fprintf(&errs, "msg %d: %v\n", i, err)
			}
		}
		var sink strings.Builder
		for _, w := range r.IP.IO.Writes {
			fmt.Fprintf(&sink, "%s.%s %s %v\n", w.Module, w.Op, w.Target, w.Value)
		}
		var viol strings.Builder
		if r.IP.Tracker != nil {
			for _, v := range r.IP.Tracker.Violations() {
				fmt.Fprintln(&viol, v.Error())
			}
		}
		obs.sinkTraces[r.Mode] = sink.String()
		obs.violations[r.Mode] = viol.String()
		obs.msgErrors[r.Mode] = errs.String()
	}
	return obs, nil
}

// diffObservations returns the first divergence between two observations of
// the same app, or "".
func diffObservations(base, got *appObservation) string {
	for _, mode := range []string{"original", "selective", "exhaustive"} {
		if base.sinkTraces[mode] != got.sinkTraces[mode] {
			return fmt.Sprintf("%s sink trace diverged:\n--- baseline\n%s--- got\n%s",
				mode, base.sinkTraces[mode], got.sinkTraces[mode])
		}
		if base.violations[mode] != got.violations[mode] {
			return fmt.Sprintf("%s violation report diverged:\n--- baseline\n%s--- got\n%s",
				mode, base.violations[mode], got.violations[mode])
		}
		if base.msgErrors[mode] != got.msgErrors[mode] {
			return fmt.Sprintf("%s message errors diverged:\n--- baseline\n%s--- got\n%s",
				mode, base.msgErrors[mode], got.msgErrors[mode])
		}
	}
	return ""
}

// TestTelemetryDifferentialCorpus replays the full runnable corpus under
// every telemetry configuration, sequentially and at parallel 8, and
// asserts each run is observation-identical to the telemetry-off
// sequential baseline.
func TestTelemetryDifferentialCorpus(t *testing.T) {
	apps := corpus.Runnable(corpus.All())
	if len(apps) == 0 {
		t.Fatal("no runnable apps in the corpus")
	}
	// sequential telemetry-off baseline
	baseline := make([]*appObservation, len(apps))
	for i, app := range apps {
		obs, err := observeApp(app, telemetryConfigs[0])
		if err != nil {
			t.Fatalf("%s: baseline: %v", app.Name, err)
		}
		baseline[i] = obs
	}
	for _, obs := range baseline {
		if obs.sinkTraces["original"] == "" {
			t.Logf("note: %s produced no sink writes in %d messages", obs.app, diffMessages)
		}
	}

	for _, cfg := range telemetryConfigs {
		for _, parallel := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/parallel=%d", cfg.name, parallel), func(t *testing.T) {
				got, err := mapIndexed(len(apps), parallel, func(i int) (*appObservation, error) {
					return observeApp(apps[i], cfg)
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if d := diffObservations(baseline[i], got[i]); d != "" {
						t.Errorf("%s under %s/parallel=%d: %s", apps[i].Name, cfg.name, parallel, d)
					}
				}
			})
		}
	}
}
