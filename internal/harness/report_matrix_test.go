package harness

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/faults"
	"turnstile/internal/telemetry"
)

// reportRow is one report of TestReportMatrix: render produces it on one
// engine at one worker count, and returns an error where turnstile-bench
// would exit non-zero. parallels overrides the worker counts {1, 8}.
type reportRow struct {
	name      string
	parallels []int
	render    func(noVM bool, parallel int) (string, error)
}

// cliApps is the -apps slice the chaos and breakdown rows run on.
func cliApps() []*corpus.App {
	all := corpus.All()
	var apps []*corpus.App
	for _, name := range []string{"modbus", "sensor-logger", "thermostat-hub"} {
		apps = append(apps, corpus.ByName(all, name))
	}
	return apps
}

// chaosRow renders RunChaos, with every app's fault trace when traces is
// set.
func chaosRow(name string, apps []*corpus.App, seed int64, messages int, traces bool) reportRow {
	return reportRow{name: name, render: func(noVM bool, parallel int) (string, error) {
		res, err := RunChaos(apps, ChaosOptions{Seed: seed, Messages: messages, Parallel: parallel, NoVM: noVM})
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(RenderChaos(res))
		for i := 0; traces && i < len(res.Apps); i++ {
			fmt.Fprintf(&b, "\n== %s fault trace\n%s", res.Apps[i].App, res.Apps[i].FaultTrace)
		}
		if res.Equivalent != len(res.Apps) {
			err = fmt.Errorf("apps diverged under faults")
		}
		return b.String(), err
	}}
}

// breakdownRow renders RunBreakdown, with the exported selective traces
// when traceCap is set.
func breakdownRow(name string, apps []*corpus.App, messages, traceCap int) reportRow {
	return reportRow{name: name, render: func(noVM bool, parallel int) (string, error) {
		res, err := RunBreakdown(apps, BreakdownOptions{
			Messages: messages, Parallel: parallel, TraceCapacity: traceCap, NoVM: noVM,
		})
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(RenderBreakdown(res))
		for _, r := range res.Rows {
			fmt.Fprintf(&b, "\n== %s selective trace\n%s", r.App, r.SelectiveTrace)
		}
		return b.String(), nil
	}}
}

// crashRow renders RunCrashCorpus with every app's typed-error detail.
// Without a schedule every app must die its expected death; under one,
// no app may end untyped or cleanly.
func crashRow(name string, schedule *faults.Schedule) reportRow {
	return reportRow{name: name, render: func(noVM bool, parallel int) (string, error) {
		res, err := RunCrashCorpus(CrashOptions{Parallel: parallel, Schedule: schedule, NoVM: noVM})
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString(RenderCrash(res))
		for _, a := range res.Apps {
			fmt.Fprintf(&b, "\n%s: %s", a.App, a.Detail)
			if schedule == nil && !a.OK || schedule != nil && (a.Kind == "untyped" || a.Kind == "none") {
				err = fmt.Errorf("%s: unexpected %s outcome", a.App, a.Kind)
			}
		}
		return b.String(), err
	}}
}

// scored fails a precision/recall report where turnstile-bench exits
// non-zero (a missed flow or a failed app), or where the report does not
// read "0 missed; false positives: 0" and "precision 1.000  recall 1.000".
func scored(out string, fn, passed, apps int) (string, error) {
	if fn > 0 || passed != apps || !strings.Contains(out, ", 0 missed; false positives: 0\n") ||
		!strings.Contains(out, "\nprecision 1.000  recall 1.000\n") {
		return out, fmt.Errorf("%d missed, %d/%d apps passed", fn, passed, apps)
	}
	return out, nil
}

// reportRows lists the matrix, costliest rows first so the concurrent
// cells finish together. Each report has a row with the exact inputs of
// the turnstile-bench invocation in its comment; the other rows add the
// whole corpus, traces and other seeds.
func reportRows() []reportRow {
	return []reportRow{
		breakdownRow("breakdown-traces", corpus.All(), diffMessages, telemetry.DefaultTraceCapacity),
		crashRow("crash", nil), // -crash
		crashRow("crash-chaos", crashChaosSchedule()),
		chaosRow("chaos-corpus", corpus.All(), 3, 8, true),
		chaosRow("chaos-slice", corpus.Runnable(corpus.All())[:6], 11, 10, false),
		// -chaos -faultseed 7 -messages 20 -apps modbus,sensor-logger,thermostat-hub
		chaosRow("chaos", cliApps(), 7, 20, false),
		// -metrics -messages 20 -apps modbus,sensor-logger,thermostat-hub
		breakdownRow("breakdown", cliApps(), 20, 0),
		{
			// -gen 56 -genseed 3, also at the default worker count (0)
			name: "gen", parallels: []int{1, 0, 8},
			render: func(noVM bool, parallel int) (string, error) {
				res, err := RunGenCorpus(GenOptions{N: 56, Seed: 3, Parallel: parallel, NoVM: noVM})
				if err != nil {
					return "", err
				}
				return scored(RenderGen(res), res.FN, res.Passed, len(res.Apps))
			},
		},
		{
			// -attack
			name: "attack",
			render: func(noVM bool, parallel int) (string, error) {
				res, err := RunAttackCorpus(AttackOptions{Parallel: parallel, NoVM: noVM})
				if err != nil {
					return "", err
				}
				return scored(RenderAttack(res), res.FN, res.Passed, len(res.Apps))
			},
		},
	}
}

// TestReportMatrix renders every turnstile-bench report that must not
// depend on how it was computed — chaos, overhead breakdown, crash,
// attack and gen — through the Render* functions the CLI prints, on the
// bytecode VM and on the -novm tree-walker, each at -parallel 1 and 8.
// Every rendering of a row must be byte-identical to the VM's at
// -parallel 1. The cells run concurrently, slowest (walker, sequential)
// first.
func TestReportMatrix(t *testing.T) {
	type cell struct {
		row      int
		noVM     bool
		parallel int
	}
	rows := reportRows()
	var cells []cell
	for i, r := range rows {
		parallels := r.parallels
		if parallels == nil {
			parallels = []int{1, 8}
		}
		for _, noVM := range []bool{true, false} {
			for _, p := range parallels {
				cells = append(cells, cell{i, noVM, p})
			}
		}
	}
	outs, err := mapIndexed(len(cells), 0, func(i int) (string, error) {
		c := cells[i]
		out, err := rows[c.row].render(c.noVM, c.parallel)
		if err != nil {
			return "", fmt.Errorf("%s (novm=%v, parallel %d): %w\n%s", rows[c.row].name, c.noVM, c.parallel, err, out)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var base string
			for j, c := range cells {
				if c.row == i && !c.noVM && c.parallel == 1 {
					base = outs[j]
				}
			}
			for j, c := range cells {
				if c.row == i && outs[j] != base {
					t.Errorf("novm=%v parallel %d differs from the VM at parallel 1:\n%s",
						c.noVM, c.parallel, firstDiffContext(base, outs[j]))
				}
			}
		})
	}
}
