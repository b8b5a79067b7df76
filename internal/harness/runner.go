package harness

import (
	"fmt"

	"turnstile/internal/ast"
	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
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

// PrepareApp loads all three versions of a runnable corpus app. The
// original runs the uninstrumented program with no tracker; the selective
// and exhaustive versions are deployed through core.Manage — the full
// Turnstile workflow of Fig. 3 — with enforcement off, the audit posture
// of the §6.2 performance runs. noVM runs all three versions on the
// tree-walking evaluator. Safe to call from multiple goroutines.
func PrepareApp(app *corpus.App, noVM bool) (*PreparedApp, error) {
	if !app.Runnable {
		return nil, fmt.Errorf("harness: app %s is not runnable", app.Name)
	}
	file := app.Name + ".js"
	prog, err := parser.Parse(file, app.Source)
	if err != nil {
		return nil, err
	}
	resolve.Resolve(prog)
	ip := interp.New()
	ip.NoVM = noVM
	prep := &PreparedApp{App: app}
	if prep.Original, err = start(app, ip, prog, "original"); err != nil {
		return nil, fmt.Errorf("original version: %w", err)
	}

	manage := func(mode instrument.Mode) (*Runner, *core.ManagedApp, error) {
		opts := core.DefaultOptions()
		opts.Mode = mode
		opts.Enforce = false
		opts.NoVM = noVM
		m, err := core.Manage(map[string]string{file: app.Source}, app.PolicyJSON, opts)
		if err != nil {
			return nil, nil, err
		}
		r, err := locate(app, m.IP, mode.String())
		return r, m, err
	}
	sel, m, err := manage(instrument.Selective)
	if err != nil {
		return nil, fmt.Errorf("selective version: %w", err)
	}
	prep.Selective, prep.Analysis, prep.SelectiveResult = sel, m.Analysis, m.Results[file]
	if prep.Exhaustive, m, err = manage(instrument.Exhaustive); err != nil {
		return nil, fmt.Errorf("exhaustive version: %w", err)
	}
	prep.ExhaustiveResult = m.Results[file]
	return prep, nil
}

// start runs one version's program on its interpreter and locates the
// app's input source.
func start(app *corpus.App, ip *interp.Interp, prog *ast.Program, mode string) (*Runner, error) {
	if err := ip.Run(prog); err != nil {
		return nil, err
	}
	return locate(app, ip, mode)
}

// locate finds the app's input source on a loaded version's interpreter.
func locate(app *corpus.App, ip *interp.Interp, mode string) (*Runner, error) {
	source, ok := ip.Source(app.SourceName)
	if !ok {
		return nil, fmt.Errorf("source %q not registered (have %v)", app.SourceName, ip.SourceNames())
	}
	return &Runner{App: app, IP: ip, source: source, Mode: mode}, nil
}
