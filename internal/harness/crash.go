package harness

import (
	"embed"
	"errors"
	"fmt"
	"strings"

	"turnstile/internal/core"
	"turnstile/internal/faults"
	"turnstile/internal/guard"
	"turnstile/internal/interp"
)

// The crash corpus is a battery of adversarial applications — unbounded
// loops, unbounded recursion, exponential allocation, parser-depth abuse,
// timer chains, labelled structures built to defeat the tracker — each of
// which must terminate with a typed error under the guard's budgets: a
// *guard.BudgetError, a *guard.PipelineError, or an enforced privacy
// violation. No app may hang, crash the process, or surface an untyped
// error, and the whole report must be byte-identical at any worker count.

//go:embed testdata/crash/*.js
var crashFS embed.FS

// CrashApp is one adversarial program.
type CrashApp struct {
	// Name is the testdata/crash/<Name>.js source.
	Name string
	// Want is the expected outcome kind: a guard budget kind ("fuel",
	// "depth", "alloc", "deadline"), a contained pipeline stage ("parse"),
	// or "violation" for an enforced privacy denial.
	Want string
	// Policy overrides crashPolicy for apps that abuse the policy itself.
	Policy string
}

// crashPolicy labels everything Alpha with a sink-incompatible rule, so a
// checked flow that keeps its label (or gains ⊤) is denied.
const crashPolicy = `{
  "labellers": { "Msg": "v => \"Alpha\"" },
  "rules": [ "Alpha -> Beta" ]
}`

// spinPolicy's label function never returns: the guard must trip inside
// the labeller call.
const spinPolicy = `{
  "labellers": { "Spin": "v => { while (true) { } }" },
  "rules": [ "Alpha -> Beta" ]
}`

// CrashApps lists the corpus with expected outcomes.
func CrashApps() []CrashApp {
	return []CrashApp{
		{Name: "infinite-loop", Want: "fuel"},
		{Name: "sink-flood", Want: "fuel"},
		{Name: "labeller-abuse", Want: "fuel", Policy: spinPolicy},
		{Name: "infinite-recursion", Want: "depth"},
		{Name: "mutual-recursion", Want: "depth"},
		{Name: "huge-alloc", Want: "alloc"},
		{Name: "string-blowup", Want: "alloc"},
		{Name: "timer-chain", Want: "deadline"},
		{Name: "deep-expr", Want: "parse"},
		{Name: "deep-literal", Want: "parse"},
		{Name: "deep-data", Want: "violation"},
		{Name: "cyclic-labeled", Want: "violation"},
	}
}

// CrashLimits is the tight budget envelope every crash app runs under.
func CrashLimits() guard.Limits {
	return guard.Limits{
		Fuel:     1_000_000,
		MaxDepth: 128,
		MaxAlloc: 32_768,
		// 20 chained timers: low enough that the timer-chain app trips the
		// deadline before its nested callbacks trip the depth budget
		DeadlineTicks: 20_000,
	}
}

// CrashOptions configures a crash-corpus run.
type CrashOptions struct {
	// Parallel is the worker count; 0 selects GOMAXPROCS, 1 runs
	// sequentially. The report is byte-identical either way.
	Parallel int
	// Schedule, when non-nil, additionally injects faults while the
	// adversarial programs run (the -chaos composition).
	Schedule *faults.Schedule
	// NoVM deploys each app on the tree-walking evaluator (-novm).
	NoVM bool
}

// CrashAppResult is one app's outcome.
type CrashAppResult struct {
	App    string
	Want   string
	Kind   string // observed outcome kind
	Detail string // one-line typed-error rendering
	OK     bool   // Kind == Want
}

// CrashCorpusResult aggregates a run.
type CrashCorpusResult struct {
	Limits guard.Limits
	Apps   []CrashAppResult
	Passed int
}

// RunCrashCorpus runs every adversarial app under CrashLimits with the
// tracker in fail-closed enforcement mode and classifies the outcome.
func RunCrashCorpus(opts CrashOptions) (*CrashCorpusResult, error) {
	apps := CrashApps()
	results, err := mapIndexed(len(apps), opts.Parallel, func(i int) (CrashAppResult, error) {
		return crashOne(apps[i], opts)
	})
	if err != nil {
		return nil, err
	}
	res := &CrashCorpusResult{Limits: CrashLimits(), Apps: results}
	for i := range results {
		if results[i].OK {
			res.Passed++
		}
	}
	return res, nil
}

func crashOne(ca CrashApp, opts CrashOptions) (CrashAppResult, error) {
	src, err := crashFS.ReadFile("testdata/crash/" + ca.Name + ".js")
	if err != nil {
		return CrashAppResult{}, fmt.Errorf("harness: crash app %s: %w", ca.Name, err)
	}
	pol := ca.Policy
	if pol == "" {
		pol = crashPolicy
	}
	lim := CrashLimits()
	copts := core.DefaultOptions()
	copts.Guard = &lim
	copts.FailClosed = true
	copts.Faults = opts.Schedule
	copts.NoVM = opts.NoVM
	_, runErr := core.Manage(map[string]string{ca.Name + ".js": string(src)}, pol, copts)
	kind, detail := ClassifyCrash(runErr)
	return CrashAppResult{App: ca.Name, Want: ca.Want, Kind: kind, Detail: detail, OK: kind == ca.Want}, nil
}

// ClassifyCrash maps a pipeline error to its typed outcome kind:
// the budget kind for *guard.BudgetError, the stage for
// *guard.PipelineError, "violation" for an enforced privacy denial,
// "runtime" for a typed interpreter error, "none" for clean completion —
// and "untyped" for anything else, which the crash gate treats as a
// failure.
func ClassifyCrash(err error) (kind, detail string) {
	if err == nil {
		return "none", ""
	}
	var be *guard.BudgetError
	if errors.As(err, &be) {
		return string(be.Kind), be.Error()
	}
	var pe *guard.PipelineError
	if errors.As(err, &pe) {
		return pe.Stage, firstLine(pe.Error())
	}
	var throw *interp.Throw
	if errors.As(err, &throw) {
		msg := throw.Error()
		if strings.Contains(msg, "PrivacyViolation") {
			return "violation", firstLine(msg)
		}
		return "throw", firstLine(msg)
	}
	var re *interp.RuntimeError
	if errors.As(err, &re) {
		return "runtime", firstLine(re.Error())
	}
	return "untyped", firstLine(err.Error())
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// RenderCrash formats the crash report. It contains no durations or other
// host-dependent values, so one build renders it byte-identically at any
// -parallel level — TestReportMatrix compares it directly.
func RenderCrash(res *CrashCorpusResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Crash corpus: %d adversarial apps under fuel=%d depth=%d alloc=%d deadline=%d\n",
		len(res.Apps), res.Limits.Fuel, res.Limits.MaxDepth, res.Limits.MaxAlloc, res.Limits.DeadlineTicks)
	fmt.Fprintf(&b, "%-20s %-10s %-10s %s\n", "application", "expected", "observed", "verdict")
	for _, a := range res.Apps {
		verdict := "OK"
		if !a.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%-20s %-10s %-10s %s\n", a.App, a.Want, a.Kind, verdict)
	}
	fmt.Fprintf(&b, "typed termination: %d/%d apps\n", res.Passed, len(res.Apps))
	for _, a := range res.Apps {
		if !a.OK {
			fmt.Fprintf(&b, "\n%s: want %s, got %s: %s\n", a.App, a.Want, a.Kind, a.Detail)
		}
	}
	return b.String()
}
