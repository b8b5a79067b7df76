package harness

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"turnstile/internal/corpus"
	"turnstile/internal/workload"
)

func fakeMeasurement(app string, orig, sel, exh time.Duration) AppMeasurement {
	mk := func(d time.Duration) workload.Service {
		s := make(workload.Service, 10)
		for i := range s {
			s[i] = d
		}
		return s
	}
	return AppMeasurement{App: app, Scale: 1,
		Original: mk(orig), Selective: mk(sel), Exhaustive: mk(exh)}
}

func TestExportJSON(t *testing.T) {
	ms := []AppMeasurement{
		fakeMeasurement("alpha", time.Millisecond, 1100*time.Microsecond, 2*time.Millisecond),
	}
	data, err := ExportJSON(ms, []float64{30, 1000})
	if err != nil {
		t.Fatal(err)
	}
	var doc CompiledResults
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Messages != 10 || len(doc.Apps) != 1 || doc.Apps[0].App != "alpha" {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Apps[0].RelExhaustive["1000Hz"] < 1.9 {
		t.Fatalf("rel = %+v", doc.Apps[0].RelExhaustive)
	}
}

func TestExportCSVs(t *testing.T) {
	ms := []AppMeasurement{
		fakeMeasurement("a", time.Millisecond, time.Millisecond, 3*time.Millisecond),
		fakeMeasurement("b", time.Millisecond, 2*time.Millisecond, 2*time.Millisecond),
	}
	points := Figure11(ms, []float64{30, 1000})
	area := ExportAreaCSV(points)
	if !strings.HasPrefix(area, "rateHz,") || strings.Count(area, "\n") != 3 {
		t.Fatalf("area csv:\n%s", area)
	}
	bar := ExportBarCSV(Figure12(ms))
	if !strings.Contains(bar, "a,") || !strings.Contains(bar, "b,") {
		t.Fatalf("bar csv:\n%s", bar)
	}
}

func TestExportFigure10CSV(t *testing.T) {
	res, err := RunE1(corpus.All()[:3], 1)
	if err != nil {
		t.Fatal(err)
	}
	csv := ExportFigure10CSV(res)
	if strings.Count(csv, "\n") != 4 {
		t.Fatalf("csv:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "app,category,manual") {
		t.Fatal("header missing")
	}
}
