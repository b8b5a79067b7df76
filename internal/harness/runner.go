package harness

import (
	"fmt"

	"turnstile/internal/ast"
	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/printer"
	"turnstile/internal/resolve"
	"turnstile/internal/taint"
)

// Runner is one executable version of an application: an interpreter with
// the (possibly instrumented) program loaded and its input source located.
type Runner struct {
	App    *corpus.App
	IP     *interp.Interp
	source *interp.Object
	// Mode describes the version ("original", "selective", "exhaustive").
	Mode string
}

// Process feeds the i-th workload message into the application.
func (r *Runner) Process(i int) error {
	return r.IP.Emit(r.source, "data", r.App.Message(i))
}

// PreparedApp bundles the three versions of §6.2.
type PreparedApp struct {
	App        *corpus.App
	Original   *Runner
	Selective  *Runner
	Exhaustive *Runner
	// Analysis is the dataflow-analysis result that drove selection.
	Analysis *taint.Result
	// SelectiveResult / ExhaustiveResult report instrumentation activity.
	SelectiveResult  *instrument.Result
	ExhaustiveResult *instrument.Result
}

// PrepareApp parses, analyzes, instruments and loads all three versions of
// a runnable corpus app — the full Turnstile workflow of Fig. 3. cache,
// when non-nil, serves the parse and dataflow analysis (computed once per
// app) and shares the cached AST, which every downstream stage treats as
// read-only, with the original version's interpreter; in VM mode the
// original version also reuses the cache's compiled bytecode. noVM runs
// all three versions on the tree-walking evaluator. Safe to call from
// multiple goroutines with one shared cache.
func PrepareApp(app *corpus.App, cache *PipelineCache, noVM bool) (*PreparedApp, error) {
	if !app.Runnable {
		return nil, fmt.Errorf("harness: app %s is not runnable", app.Name)
	}
	file := app.Name + ".js"
	prog, analysis, mod, err := analyzedApp(cache, file, app.Source, taint.DefaultOptions(), noVM)
	if err != nil {
		return nil, err
	}

	prep := &PreparedApp{App: app, Analysis: analysis}

	// original: no tracker, no instrumentation
	ip := interp.New()
	ip.NoVM = noVM
	if mod != nil {
		ip.RegisterCode(prog, mod)
	}
	if prep.Original, err = start(app, ip, prog, "original"); err != nil {
		return nil, fmt.Errorf("original version: %w", err)
	}

	// helper building an instrumented version
	build := func(mode instrument.Mode, sel instrument.Selection) (*Runner, *instrument.Result, error) {
		ip := interp.New()
		ip.NoVM = noVM
		pol, err := policy.ParseJSON([]byte(app.PolicyJSON), ip.CompileLabelFunc)
		if err != nil {
			return nil, nil, fmt.Errorf("policy: %w", err)
		}
		res, err := instrument.Instrument(prog, instrument.Options{
			Mode:       mode,
			Selection:  sel,
			Injections: pol.Injections,
			File:       file,
		})
		if err != nil {
			return nil, nil, err
		}
		src := printer.Print(res.Program)
		inst, err := parser.Parse(file, src)
		if err != nil {
			return nil, nil, fmt.Errorf("instrumented output does not re-parse: %w", err)
		}
		resolve.Resolve(inst)
		tr := ip.InstallTracker(pol)
		tr.Enforce = false // audit mode for performance runs (§6.2)
		r, err := start(app, ip, inst, mode.String())
		return r, res, err
	}

	sel := instrument.Selection(analysis.SelectionFor(file))
	if prep.Selective, prep.SelectiveResult, err = build(instrument.Selective, sel); err != nil {
		return nil, fmt.Errorf("selective version: %w", err)
	}
	if prep.Exhaustive, prep.ExhaustiveResult, err = build(instrument.Exhaustive, nil); err != nil {
		return nil, fmt.Errorf("exhaustive version: %w", err)
	}
	return prep, nil
}

// start runs one version's program on its interpreter and locates the
// app's input source.
func start(app *corpus.App, ip *interp.Interp, prog *ast.Program, mode string) (*Runner, error) {
	if err := ip.Run(prog); err != nil {
		return nil, err
	}
	source, ok := ip.Source(app.SourceName)
	if !ok {
		return nil, fmt.Errorf("source %q not registered (have %v)", app.SourceName, ip.SourceNames())
	}
	return &Runner{App: app, IP: ip, source: source, Mode: mode}, nil
}
