package harness

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/policy"
	"turnstile/internal/printer"
	"turnstile/internal/resolve"
	"turnstile/internal/telemetry"
)

// appSignature prepares all three versions of one app on one engine and
// renders everything observable into a canonical string (see
// runnersSignature). Two engines are equivalent iff their signatures are
// byte-identical.
func appSignature(app *corpus.App, noVM bool, messages int) (string, error) {
	prep, err := PrepareApp(app, noVM)
	if err != nil {
		return "", fmt.Errorf("%s: %w", app.Name, err)
	}
	return runnersSignature(app, []*Runner{prep.Original, prep.Selective, prep.Exhaustive}, messages), nil
}

// runnersSignature pumps messages through each version and renders the
// per-message error outcomes, the full sink trace, the recorded
// violations, the tracker statistics and the console output.
func runnersSignature(app *corpus.App, runners []*Runner, messages int) string {
	var b strings.Builder
	for _, r := range runners {
		fmt.Fprintf(&b, "== %s/%s\n", app.Name, r.Mode)
		for i := 0; i < messages; i++ {
			if err := r.Process(i); err != nil {
				fmt.Fprintf(&b, "msg %d: %v\n", i, err)
			}
		}
		for _, w := range r.IP.IO.Writes {
			fmt.Fprintf(&b, "write: %s.%s %s %v\n", w.Module, w.Op, w.Target, w.Value)
		}
		if r.IP.Tracker != nil {
			for _, v := range r.IP.Tracker.Violations() {
				fmt.Fprintf(&b, "violation: %v\n", v.Error())
			}
			fmt.Fprintf(&b, "stats: %+v\n", r.IP.Tracker.Stats())
		}
		for _, line := range r.IP.ConsoleOut {
			fmt.Fprintf(&b, "console: %s\n", line)
		}
	}
	return b.String()
}

// mapWalkRunners loads a prepared app's three versions again from
// unresolved parses of the original source and the instrumented versions'
// printed sources, on the tree-walker: every variable access takes the
// map walk and no inline cache is filled.
func mapWalkRunners(app *corpus.App, prep *PreparedApp) ([]*Runner, error) {
	var runners []*Runner
	for _, v := range []struct {
		mode string
		res  *instrument.Result // nil for the original
	}{{prep.Original.Mode, nil}, {prep.Selective.Mode, prep.SelectiveResult}, {prep.Exhaustive.Mode, prep.ExhaustiveResult}} {
		ip := interp.New()
		ip.NoVM = true
		src := app.Source
		if v.res != nil {
			pol, err := policy.ParseJSON([]byte(app.PolicyJSON), ip.CompileLabelFunc)
			if err != nil {
				return nil, err
			}
			ip.InstallTracker(pol).Enforce = false
			src = printer.Print(v.res.Program)
		}
		prog, err := parser.Parse(app.Name+".js", src)
		if err != nil {
			return nil, err
		}
		r, err := start(app, ip, prog, v.mode)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", app.Name, v.mode, err)
		}
		runners = append(runners, r)
	}
	return runners, nil
}

// TestResolveDifferentialFullCorpus is the resolver's corpus-wide
// semantics gate: for every runnable app, the tree-walker on the resolved
// programs (slot env) and on unresolved re-parses of the same printed
// sources (map walk) must produce byte-identical sink traces, violations,
// tracker statistics and console output across all three versions.
func TestResolveDifferentialFullCorpus(t *testing.T) {
	const messages = 25
	runnable := corpus.Runnable(corpus.All())
	if len(runnable) == 0 {
		t.Fatal("no runnable corpus apps")
	}
	type pair struct{ slot, mapWalk string }
	pairs, err := mapIndexed(len(runnable), 0, func(i int) (pair, error) {
		app := runnable[i]
		prep, err := PrepareApp(app, true)
		if err != nil {
			return pair{}, err
		}
		runners, err := mapWalkRunners(app, prep)
		if err != nil {
			return pair{}, err
		}
		return pair{
			slot:    runnersSignature(app, []*Runner{prep.Original, prep.Selective, prep.Exhaustive}, messages),
			mapWalk: runnersSignature(app, runners, messages),
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if p.slot != p.mapWalk {
			t.Errorf("%s: slot env and map walk diverged:\n--- slot\n%s--- map walk\n%s",
				runnable[i].Name, p.slot, p.mapWalk)
		}
	}
}

// TestUnresolvedRunHasNoFastPaths: a fresh interpreter running an
// unresolved parse of a corpus app reads no slot and hits no inline cache,
// so the map walk needs no engine option. The resolved parse must use
// both, or the check is vacuous.
func TestUnresolvedRunHasNoFastPaths(t *testing.T) {
	app := corpus.ByName(corpus.All(), "modbus")
	for _, resolved := range []bool{false, true} {
		prog, err := parser.Parse(app.Name+".js", app.Source)
		if err != nil {
			t.Fatal(err)
		}
		if resolved {
			resolve.Resolve(prog)
		}
		ip := interp.New()
		m := telemetry.NewMetrics()
		ip.EnableTelemetry(m, nil)
		r, err := start(app, ip, prog, "original")
		for i := 0; err == nil && i < 10; i++ {
			err = r.Process(i)
		}
		if err != nil {
			t.Fatal(err)
		}
		ip.FlushEnvTelemetry()
		slots, hits := m.CounterValue(telemetry.CtrEnvSlotReads), m.CounterValue(telemetry.CtrICHits)
		if !resolved && (slots != 0 || hits != 0) || resolved && (slots == 0 || hits == 0) {
			t.Errorf("resolved=%v: %d slot reads, %d inline-cache hits", resolved, slots, hits)
		}
	}
}
