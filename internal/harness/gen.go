package harness

import (
	"fmt"
	"strings"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
)

// The generated-corpus harness scores the seeded stratified generator
// (corpus/strata.go) the same way the attack harness scores the
// hand-written attack corpus: every generated app runs under exhaustive
// instrumentation, implicit flows and audit mode, its event sources are
// pumped with the app's deterministic payload schedule, and the recorded
// violations are matched against the built-in must-catch/must-allow
// ground truth. The report groups scores by stratum so a regression in
// one flow family is visible as that family's row, and is byte-identical
// at any worker count; TestReportMatrix gates on zero missed flows.

// GenOptions configures a generated-corpus run.
type GenOptions struct {
	// N is the number of generated apps; 0 selects a default population
	// of ten apps per stratum.
	N int
	// Seed is the corpus seed: (N, Seed) fully determine the population.
	Seed uint64
	// Parallel is the worker count; 0 selects GOMAXPROCS, 1 runs
	// sequentially. The report is byte-identical either way.
	Parallel int
	// NoVM deploys each app on the tree-walking evaluator (-novm).
	NoVM bool
}

// GenAppResult is one generated app's score.
type GenAppResult struct {
	App      string
	Stratum  string
	Expected int      // ground-truth must-catch flows
	Caught   int      // must-catch flows with a matching violation
	Missed   []string // must-catch prefixes with no matching violation
	Leaked   []string // must-allow prefixes that matched a violation
	Err      string   // non-empty when the app failed to generate or run
	OK       bool
}

// GenStratumRow aggregates one stratum's scores.
type GenStratumRow struct {
	Stratum    string
	Class      string
	Apps       int
	Passed     int
	TP, FN, FP int
}

// GenResult aggregates a generated-corpus run.
type GenResult struct {
	N          int
	Seed       uint64
	Apps       []GenAppResult
	Rows       []GenStratumRow
	Passed     int
	TP, FN, FP int
}

// Precision is TP/(TP+FP); 1 when nothing was flagged wrongly.
func (r *GenResult) Precision() float64 {
	if r.TP+r.FP == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FP)
}

// Recall is TP/(TP+FN); 1 when no must-catch flow escaped.
func (r *GenResult) Recall() float64 {
	if r.TP+r.FN == 0 {
		return 1
	}
	return float64(r.TP) / float64(r.TP+r.FN)
}

// RunGenCorpus generates the (N, Seed) population and scores every app.
func RunGenCorpus(opts GenOptions) (*GenResult, error) {
	if opts.N <= 0 {
		opts.N = 10 * len(corpus.GenStrata())
	}
	apps, err := corpus.GenCorpus(opts.N, opts.Seed)
	if err != nil {
		return nil, err
	}
	results, err := mapIndexed(len(apps), opts.Parallel, func(i int) (GenAppResult, error) {
		return genOne(apps[i], opts)
	})
	if err != nil {
		return nil, err
	}
	res := &GenResult{N: opts.N, Seed: opts.Seed, Apps: results}
	rows := make(map[string]*GenStratumRow)
	for _, s := range corpus.GenStrata() {
		rows[s.Name] = &GenStratumRow{Stratum: s.Name, Class: s.Class}
	}
	for i := range results {
		r := &results[i]
		row := rows[r.Stratum]
		row.Apps++
		if r.OK {
			res.Passed++
			row.Passed++
		}
		row.TP += r.Caught
		row.FN += len(r.Missed)
		row.FP += len(r.Leaked)
		res.TP += r.Caught
		res.FN += len(r.Missed)
		res.FP += len(r.Leaked)
	}
	for _, s := range corpus.GenStrata() {
		if row := rows[s.Name]; row.Apps > 0 {
			res.Rows = append(res.Rows, *row)
		}
	}
	return res, nil
}

// genOne runs one generated app under the scoring configuration and
// matches its violations against the ground truth.
func genOne(ga *corpus.GenApp, opts GenOptions) (GenAppResult, error) {
	res := GenAppResult{App: ga.Name, Stratum: ga.Stratum, Expected: len(ga.MustCatch)}
	if err := ga.CheckConsistency(); err != nil {
		res.Err = firstLine(err.Error())
		return res, nil
	}
	copts := core.DefaultOptions()
	copts.Mode = instrument.Exhaustive
	copts.ImplicitFlows = true
	copts.Enforce = false // audit: the whole app executes, every violation is recorded
	copts.NoVM = opts.NoVM
	app, err := core.Manage(ga.Files, ga.Policy, copts)
	if err != nil {
		res.Err = firstLine(err.Error())
		return res, nil
	}
	if len(ga.Sources) > 0 {
		for i := 0; i < ga.Messages; i++ {
			src := ga.Sources[i%len(ga.Sources)]
			if err := app.Emit(src, ga.Event, ga.Payload(i)); err != nil {
				res.Err = firstLine(err.Error())
				return res, nil
			}
		}
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
	for _, p := range ga.MustCatch {
		if match(p) {
			res.Caught++
		} else {
			res.Missed = append(res.Missed, p)
		}
	}
	for _, p := range ga.MustAllow {
		if match(p) {
			res.Leaked = append(res.Leaked, p)
		}
	}
	res.OK = res.Err == "" && len(res.Missed) == 0 && len(res.Leaked) == 0
	return res, nil
}

// RenderGen formats the stratified precision/recall report. No durations
// or other host-dependent values: one build renders it byte-identically
// at any -parallel level, so TestReportMatrix compares it directly.
func RenderGen(res *GenResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generated corpus: %d apps, seed %d (exhaustive instrumentation, implicit flows, audit mode)\n",
		res.N, res.Seed)
	fmt.Fprintf(&b, "%-16s %-44s %5s %7s %7s %7s %6s\n",
		"stratum", "flow class", "apps", "passed", "caught", "missed", "false+")
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%-16s %-44s %5d %7d %7d %7d %6d\n",
			row.Stratum, row.Class, row.Apps, row.Passed, row.TP, row.FN, row.FP)
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
