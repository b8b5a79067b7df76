package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"turnstile/internal/core"
	"turnstile/internal/corpus"
	"turnstile/internal/harness"
	"turnstile/internal/instrument"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/resolve"
	"turnstile/internal/telemetry"
	"turnstile/internal/workload"
)

// The three versions of §6.2, in the order a round starts them.
const (
	vOrig = iota
	vSel
	vExh
	nVersions
)

var versionNames = [nVersions]string{"orig", "sel", "exh"}

// runner is one deployed version of one app.
type runner struct {
	ip  *interp.Interp
	src *interp.Object
	m   *telemetry.Metrics // traced twins only
}

func (r *runner) emit(payload string) error { return r.ip.Emit(r.src, "data", payload) }

// streamApp holds one runnable corpus app's three versions, plus telemetry
// twins in a traced run, and its per-message samples.
type streamApp struct {
	app     *corpus.App
	gen     *rand.Rand
	perm    [3]int
	v       [nVersions]*runner
	twin    [nVersions]*runner
	us      [nVersions][]float64 // untraced per-message service times
	steps   [nVersions]int64
	tracedU [nVersions][]float64
	allocs  [nVersions][]float64
	base    [nVersions]map[string]int64 // twin counters after deploy
}

// streamPhase is the stream workload, the paper's E2: a closed loop with
// one caller over the runnable corpus apps, the three versions of each
// interleaved within every round.
type streamPhase struct {
	apps   []*streamApp
	msgs   int // measured messages per version
	marked int // measured frames carrying the secret marker
	rounds int // measured rounds played
	round  int // next round to play
	tally
}

// streamWarmup rounds run before any sample is kept; at least
// streamMinRounds are measured, enough frames per version for a p99 with
// ten samples beyond it.
const (
	streamWarmup    = 3
	streamMinRounds = 4 * streamSlice
)

// loadOriginal runs the uninstrumented app on a plain interpreter.
func loadOriginal(a *corpus.App, m *telemetry.Metrics) (*runner, error) {
	prog, err := parser.Parse(a.Name+".js", a.Source)
	if err != nil {
		return nil, err
	}
	resolve.Resolve(prog)
	ip := interp.New()
	if m != nil {
		ip.EnableTelemetry(m, nil)
	}
	if err := ip.Run(prog); err != nil {
		return nil, err
	}
	src, ok := ip.Source(a.SourceName)
	if !ok {
		return nil, fmt.Errorf("%s: source %q not registered", a.Name, a.SourceName)
	}
	return &runner{ip: ip, src: src, m: m}, nil
}

// loadManaged deploys the app through core.Manage in the §6.2 audit
// posture.
func loadManaged(a *corpus.App, mode instrument.Mode, m *telemetry.Metrics) (*runner, error) {
	opts := core.DefaultOptions()
	opts.Mode = mode
	opts.Enforce = false
	opts.Metrics = m
	app, err := core.Manage(map[string]string{a.Name + ".js": a.Source}, a.PolicyJSON, opts)
	if err != nil {
		return nil, err
	}
	src, ok := app.IP.Source(a.SourceName)
	if !ok {
		return nil, fmt.Errorf("%s: source %q not registered", a.Name, a.SourceName)
	}
	return &runner{ip: app.IP, src: src, m: m}, nil
}

func loadVersions(a *corpus.App, traced bool) ([nVersions]*runner, error) {
	var vs [nVersions]*runner
	var m [nVersions]*telemetry.Metrics
	if traced {
		for i := range m {
			m[i] = telemetry.NewMetrics()
		}
	}
	var err error
	if vs[vOrig], err = loadOriginal(a, m[vOrig]); err != nil {
		return vs, err
	}
	if vs[vSel], err = loadManaged(a, instrument.Selective, m[vSel]); err != nil {
		return vs, err
	}
	vs[vExh], err = loadManaged(a, instrument.Exhaustive, m[vExh])
	return vs, err
}

// newStreamPhase deploys every runnable app's versions: the stream part of
// set-up.
func newStreamPhase(seed uint64, traced bool) (*streamPhase, error) {
	p := &streamPhase{}
	for _, a := range corpus.Runnable(corpus.All()) {
		sa := &streamApp{app: a, gen: newRng(seed, "stream-"+a.Name)}
		var err error
		if sa.v, err = loadVersions(a, false); err != nil {
			return nil, fmt.Errorf("stream set-up: %w", err)
		}
		if traced {
			if sa.twin, err = loadVersions(a, true); err != nil {
				return nil, fmt.Errorf("stream set-up: %w", err)
			}
			for v, r := range sa.twin {
				sa.base[v] = r.m.Counters()
			}
		}
		p.apps = append(p.apps, sa)
	}
	return p, nil
}

func (p *streamPhase) enough() bool { return p.rounds >= streamMinRounds }

// step plays one slice of rounds after a collection (see quiet), after
// the warm-up on the first call:
// one fresh frame per app per round, fed to every version. The start
// version rotates by round so no version always runs first.
func (p *streamPhase) step(rec *recorder) {
	quiet(func() { p.slice(rec) })
}

func (p *streamPhase) slice(rec *recorder) {
	n := streamSlice
	if p.round == 0 {
		n += streamWarmup
	}
	for end := p.round + n; p.round < end; p.round++ {
		round := p.round
		keep := round >= streamWarmup
		for ai, sa := range p.apps {
			payload := streamPayload(sa.gen, &sa.perm, round)
			if keep {
				p.msgs++
				if strings.Contains(payload, "E") {
					p.marked++
				}
			}
			p.feed(sa, sa.v, payload, round, keep, nil)
			if rec != nil {
				trace := int64(round)<<16 | int64(ai)
				p.feed(sa, sa.twin, payload, round, keep, func(v int, f func() error) error {
					id := rec.begin(trace, 0, "stream."+versionNames[v])
					a0, t0 := heapAllocs(), time.Now()
					err := f()
					d, a := time.Since(t0), heapAllocs()-a0
					rec.end(id)
					if keep {
						sa.tracedU[v] = append(sa.tracedU[v], us(d))
						sa.allocs[v] = append(sa.allocs[v], float64(a))
					}
					return err
				})
			}
		}
		if keep {
			p.rounds++
		}
	}
}

// feed sends one frame to the three versions and checks transparency:
// the managed versions' sink writes must equal the original's. With a
// wrap (traced twins) the wrap times each call; otherwise it is timed
// here into the untraced samples.
func (p *streamPhase) feed(sa *streamApp, vs [nVersions]*runner, payload string, round int, keep bool, wrap func(int, func() error) error) {
	failed := false
	for k := 0; k < nVersions; k++ {
		v := (round + k) % nVersions
		r := vs[v]
		p.attempted++
		call := func() error { return r.emit(payload) }
		var err error
		if wrap != nil {
			err = wrap(v, call)
		} else {
			s0, t0 := r.ip.Steps(), time.Now()
			err = call()
			d := time.Since(t0)
			if keep {
				sa.us[v] = append(sa.us[v], us(d))
				sa.steps[v] += r.ip.Steps() - s0
			}
		}
		if err != nil {
			p.fail(fmt.Errorf("%s %s: message %q: %w", sa.app.Name, versionNames[v], payload, err))
			failed = true
		}
	}
	want := vs[vOrig].ip.IO.Writes
	for _, v := range []int{vSel, vExh} {
		if err := sameWrites(want, vs[v].ip.IO.Writes); err != nil && !failed {
			p.mismatch(fmt.Errorf("%s %s: message %q: %w", sa.app.Name, versionNames[v], payload, err))
		}
	}
	for _, r := range vs {
		r.ip.IO.Writes = r.ip.IO.Writes[:0]
	}
}

func sameWrites(want, got []interp.SinkWrite) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d sink writes, original made %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Module != g.Module || w.Op != g.Op || w.Target != g.Target || fmt.Sprint(w.Value) != fmt.Sprint(g.Value) {
			return fmt.Errorf("sink write %d is %s.%s %s %v, original wrote %s.%s %s %v",
				i, g.Module, g.Op, g.Target, g.Value, w.Module, w.Op, w.Target, w.Value)
		}
	}
	return nil
}

// streamSlice is how many rounds one step plays: four record-count
// cycles of streamPayload, so every step feeds every app the same mix of
// frame sizes. The warm-up is one cycle, so steps start on a cycle
// boundary.
const streamSlice = 12

// samples pools one version's untraced samples across apps.
func (p *streamPhase) samples(v int) []float64 {
	var out []float64
	for _, sa := range p.apps {
		out = append(out, sa.us[v]...)
	}
	return out
}

// layers derives the stream per-layer metrics: counts from the twins'
// telemetry, times from the untraced samples.
func (p *streamPhase) layers(out map[string]float64) {
	var steps, ns [nVersions]float64
	var delta [nVersions]map[string]int64
	var traced [nVersions][]float64
	var allocs [nVersions][]float64
	for v := range delta {
		delta[v] = map[string]int64{}
	}
	var selRatios, exhRatios []float64
	worstSel, worstExh := 0.0, 0.0
	for _, sa := range p.apps {
		for v := 0; v < nVersions; v++ {
			steps[v] += float64(sa.steps[v])
			for _, x := range sa.us[v] {
				ns[v] += x * 1000
			}
			traced[v] = append(traced[v], sa.tracedU[v]...)
			allocs[v] = append(allocs[v], sa.allocs[v]...)
			if tw := sa.twin[v]; tw != nil {
				tw.ip.FlushEnvTelemetry()
				for k, n := range tw.m.Counters() {
					delta[v][k] += n - sa.base[v][k]
				}
			}
		}
		o := median(sa.us[vOrig])
		selRatios = append(selRatios, median(sa.us[vSel])/o)
		exhRatios = append(exhRatios, median(sa.us[vExh])/o)
		svc := func(v int) workload.Service {
			s := make(workload.Service, len(sa.us[v]))
			for i, x := range sa.us[v] {
				s[i] = time.Duration(x * float64(time.Microsecond) * harness.DefaultServiceScale)
			}
			return s
		}
		worstSel = math.Max(worstSel, workload.RelativeRuntime(svc(vSel), svc(vOrig), 30))
		worstExh = math.Max(worstExh, workload.RelativeRuntime(svc(vExh), svc(vOrig), 30))
	}
	msgs := float64(max(p.msgs, 1))
	sum := func(m map[string]int64, prefix string) float64 {
		var t int64
		for k, n := range m {
			if strings.HasPrefix(k, prefix) {
				t += n
			}
		}
		return float64(t)
	}
	var icHits, icMiss, cacheHit, cacheMiss float64
	for v := 0; v < nVersions; v++ {
		name := versionNames[v]
		out["interp.steps_per_msg."+name] = steps[v] / msgs
		out["go.allocs_per_msg."+name] = mean(allocs[v])
		out["trace.overhead."+name+"_msg_us_p50"] = ratio(median(traced[v]), median(p.samples(v))) - 1
		icHits += float64(delta[v][telemetry.CtrICHits])
		icMiss += float64(delta[v][telemetry.CtrICMisses])
		if v == vOrig {
			continue
		}
		out["dift.ops_per_msg."+name] = sum(delta[v], "dift.") / msgs
		out["dift.track_per_msg."+name] = float64(delta[v]["dift.track"]) / msgs
		out["dift.invoke_per_msg."+name] = float64(delta[v]["dift.invoke"]) / msgs
		out["dift.added_us_per_msg."+name] = mean(p.samples(v)) - mean(p.samples(vOrig))
		cacheHit += float64(delta[v]["policy.cache.hit"])
		cacheMiss += float64(delta[v]["policy.cache.miss"])
	}
	out["interp.ns_per_step.orig"] = ratio(ns[vOrig], steps[vOrig])
	out["interp.ic_hit_ratio"] = ratio(icHits, icHits+icMiss)
	out["host.calls_per_msg"] = sum(delta[vOrig], "host.") / msgs
	out["policy.cache_hit_ratio"] = ratio(cacheHit, cacheHit+cacheMiss)
	out["policy.cache_lookups_per_msg"] = (cacheHit + cacheMiss) / msgs
	out["overhead.sel_ratio"] = geomean(selRatios)
	out["overhead.exh_ratio"] = geomean(exhRatios)
	out["overhead.sel_30hz_worst"] = worstSel
	out["overhead.exh_30hz_worst"] = worstExh
}
