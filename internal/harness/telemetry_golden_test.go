package harness

import (
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/telemetry"
)

// Golden tests pinning the three telemetry renderings: the overhead
// breakdown of `turnstile-bench -metrics`, the Metrics.Render table of
// `turnstile run -metrics`, and the two trace export formats. All inputs
// are deterministic (count-based breakdown, synthetic registries, virtual
// clock), so any byte of drift is a real behaviour change.

// TestGoldenBreakdown pins the full overhead-breakdown rendering over a
// fixed three-app subset of the real corpus.
func TestGoldenBreakdown(t *testing.T) {
	var apps []*corpus.App
	for _, name := range []string{"modbus", "sensor-logger", "thermostat-hub"} {
		a := corpus.ByName(corpus.All(), name)
		if a == nil {
			t.Fatalf("corpus app %q missing", name)
		}
		apps = append(apps, a)
	}
	res, err := RunBreakdown(apps, BreakdownOptions{Messages: 20, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "overhead_breakdown", RenderBreakdown(res))
}

// TestGoldenMetricsRender pins the metrics table over a synthetic registry
// exercising counters, histograms (including the clamped last bucket) and
// sorting.
func TestGoldenMetricsRender(t *testing.T) {
	m := telemetry.NewMetrics()
	m.Add("dift.check", 12)
	m.Add("dift.label", 4)
	m.Add("host.mqtt.publish", 7)
	m.Add("policy.cache.hit", 30)
	m.Add("policy.cache.miss", 3)
	for _, v := range []int64{0, 1, 1, 2, 3, 5, 8, 1 << 40} {
		m.Observe("dift.check.labels", v)
	}
	checkGolden(t, "metrics_render", m.Render())
}

// fixedTracer builds a tracer fed from a fixed step clock.
func fixedTracer() *telemetry.Tracer {
	tick := int64(100)
	tr := telemetry.NewTracer(8, func() int64 { tick += 10; return tick })
	tr.Record(telemetry.Event{Op: "label", Site: "personal", Labels: []string{"person"}})
	tr.Record(telemetry.Event{Op: "check", Site: "app.js:12:3", Target: "mqtt.publish",
		Labels: []string{"person"}, Recv: []string{"eu"}})
	tr.Record(telemetry.Event{Op: "sink", Site: "mqtt.publish", Target: "alerts/eu",
		Labels: []string{"person"}})
	tr.Record(telemetry.Event{Op: "violation", Site: "app.js:19:5", Detail: "invoke",
		Labels: []string{"person"}, Recv: []string{"us"}})
	return tr
}

// TestGoldenTraceJSON pins the structured trace export format.
func TestGoldenTraceJSON(t *testing.T) {
	data, err := fixedTracer().ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_json", string(data))
}

// TestGoldenChromeTrace pins the chrome-trace (Trace Event Format) export.
func TestGoldenChromeTrace(t *testing.T) {
	data, err := fixedTracer().ExportChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_trace", string(data))
}
