package harness

import (
	"fmt"
	"strings"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
)

// The attack harness runs the adversarial corpus (corpus/attack.go) with
// exhaustive instrumentation, implicit flows and the tracker in audit mode
// — the strongest monitoring configuration — and scores the recorded
// violations against each app's ground truth. A must-catch prefix with no
// matching violation is a missed flow (a real leak the tracker let
// through); a must-allow prefix with a matching violation is a false
// positive (a sanctioned flow the tracker flagged). The rendered table is
// deterministic and byte-identical at any worker count; TestReportMatrix
// gates on zero missed flows.

// AttackOptions configures an attack-corpus run.
type AttackOptions struct {
	// Parallel is the worker count; 0 selects GOMAXPROCS, 1 runs
	// sequentially. The report is byte-identical either way.
	Parallel int
	// NoVM deploys each app on the tree-walking evaluator (-novm).
	NoVM bool
}

// AttackAppResult is one app's score.
type AttackAppResult struct {
	App      string
	Vector   string
	Expected int      // ground-truth must-catch flows
	Caught   int      // must-catch flows with a matching violation
	Missed   []string // must-catch prefixes with no matching violation
	Leaked   []string // must-allow prefixes that matched a violation
	Err      string   // non-empty when the app failed to run
	OK       bool
}

// AttackResult aggregates a run with corpus-wide precision/recall.
type AttackResult struct {
	Apps   []AttackAppResult
	Passed int
	// TP/FN/FP over ground-truth entries: TP = caught must-catch flows,
	// FN = missed must-catch flows, FP = flagged must-allow flows.
	TP, FN, FP int
}

// Precision is TP/(TP+FP); 1 when nothing was flagged wrongly.
func (r *AttackResult) Precision() float64 {
	if r.TP+r.FP == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FP)
}

// Recall is TP/(TP+FN); 1 when no must-catch flow escaped.
func (r *AttackResult) Recall() float64 {
	if r.TP+r.FN == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FN)
}

// RunAttackCorpus runs every attack app and scores it.
func RunAttackCorpus(opts AttackOptions) (*AttackResult, error) {
	apps := corpus.AttackApps()
	results, err := mapIndexed(len(apps), opts.Parallel, func(i int) (AttackAppResult, error) {
		return attackOne(apps[i], opts)
	})
	if err != nil {
		return nil, err
	}
	res := &AttackResult{Apps: results}
	for i := range results {
		r := &results[i]
		if r.OK {
			res.Passed++
		}
		res.TP += r.Caught
		res.FN += len(r.Missed)
		res.FP += len(r.Leaked)
	}
	return res, nil
}

func attackOne(aa *corpus.AttackApp, opts AttackOptions) (AttackAppResult, error) {
	res := AttackAppResult{App: aa.Name, Vector: aa.Vector, Expected: len(aa.MustCatch)}
	copts := core.DefaultOptions()
	copts.Mode = instrument.Exhaustive
	copts.ImplicitFlows = true
	copts.Enforce = false // audit: the whole attack executes, every violation is recorded
	copts.NoVM = opts.NoVM
	app, err := core.Manage(map[string]string{aa.Name + ".js": aa.Source}, aa.Policy, copts)
	if err != nil {
		res.Err = firstLine(err.Error())
		return res, nil
	}
	violations := app.Violations()
	match := func(prefix string) bool {
		for _, v := range violations {
			if strings.HasPrefix(v.Site, prefix) {
				return true
			}
		}
		return false
	}
	for _, p := range aa.MustCatch {
		if match(p) {
			res.Caught++
		} else {
			res.Missed = append(res.Missed, p)
		}
	}
	for _, p := range aa.MustAllow {
		if match(p) {
			res.Leaked = append(res.Leaked, p)
		}
	}
	res.OK = res.Err == "" && len(res.Missed) == 0 && len(res.Leaked) == 0
	return res, nil
}

// RenderAttack formats the precision/recall report. No durations or other
// host-dependent values: one build renders it byte-identically at any
// -parallel level, so TestReportMatrix compares it directly.
func RenderAttack(res *AttackResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Attack corpus: %d adversarial apps (exhaustive instrumentation, implicit flows, audit mode)\n", len(res.Apps))
	fmt.Fprintf(&b, "%-22s %-36s %9s %7s %7s %6s %s\n",
		"application", "vector", "expected", "caught", "missed", "false+", "verdict")
	for _, a := range res.Apps {
		verdict := "OK"
		if !a.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%-22s %-36s %9d %7d %7d %6d %s\n",
			a.App, a.Vector, a.Expected, a.Caught, len(a.Missed), len(a.Leaked), verdict)
	}
	fmt.Fprintf(&b, "must-catch flows: %d caught, %d missed; false positives: %d\n", res.TP, res.FN, res.FP)
	fmt.Fprintf(&b, "precision %.3f  recall %.3f\n", res.Precision(), res.Recall())
	for _, a := range res.Apps {
		if a.Err != "" {
			fmt.Fprintf(&b, "\n%s: error: %s\n", a.App, a.Err)
		}
		for _, m := range a.Missed {
			fmt.Fprintf(&b, "\n%s: MISSED must-catch flow %s\n", a.App, m)
		}
		for _, l := range a.Leaked {
			fmt.Fprintf(&b, "\n%s: false positive on sanctioned flow %s\n", a.App, l)
		}
	}
	return b.String()
}
