// Command perfbench is the repository's end-to-end benchmark. It drives
// Turnstile through its public entry points and times every call from
// outside:
//
//   - deploy: core.Manage on sources that never repeat;
//   - stream: the paper's E2, the original, selective and exhaustive
//     versions of every runnable corpus app fed the same frames;
//   - serve: a durable multi-tenant serve.Server fleet.
//
// Every run executes all three parts, interleaved step by step, so every
// metric is measured from operations of its own kind in every run;
// --workload (deploy or stream) gives its part half of the measuring time
// and the other two a quarter each. With --trace 1 the
// run records spans and telemetry counters and prints the per-layer
// metrics instead of the end-to-end ones. The last line of standard output
// is one JSON object; the run exits non-zero if any operation failed or
// any output check did not hold. perfbench/layers.json maps the layers to
// the metrics.
//
//	perfbench --workload stream --seed 1 --seconds 20 --trace 0 [--out DIR]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"time"
)

// workloads are the parts --workload can give half of a run. The serve
// part always gets a quarter: its metrics hold steady on that share, and
// every workload adds a set of runs that a slowdown of the host lasting
// minutes can split.
var workloads = []string{"deploy", "stream"}

// nParts is how many parts every run interleaves.
const nParts = 3

// primaryShare of the measuring time goes to the named workload's part;
// the other two parts split the rest. Each part also runs until it has
// the samples its p99 needs (the percentile rule), so a slow machine
// stretches a run rather than failing it.
const primaryShare = 0.5

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(memoryCap)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := measure(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "deploy or stream")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measuring time")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for serve state and span dumps")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace == 1
	switch {
	case fs.NArg() > 0:
		return cfg, fmt.Errorf("unexpected arguments %v", fs.Args())
	case !slices.Contains(workloads, cfg.workload):
		return cfg, fmt.Errorf("--workload must be one of %v", workloads)
	case cfg.seconds <= 0:
		return cfg, errors.New("--seconds must be positive")
	case trace != 0 && trace != 1:
		return cfg, errors.New("--trace must be 0 or 1")
	}
	return cfg, nil
}

// budget is the measuring time of one part.
func (c config) budget(part string) time.Duration {
	share := (1 - primaryShare) / (nParts - 1)
	if part == c.workload {
		share = primaryShare
	}
	return time.Duration(share * c.seconds * float64(time.Second))
}

// tally counts one part's operations: those attempted, those that
// failed, and the output checks that did not hold.
type tally struct {
	attempted, failed, wrong int
	problems                 []string // the first few, for the error report
}

func (t *tally) fail(err error) {
	t.failed++
	t.note(err)
}

func (t *tally) mismatch(err error) {
	t.wrong++
	t.note(err)
}

func (t *tally) note(err error) {
	if len(t.problems) < 5 {
		t.problems = append(t.problems, err.Error())
	}
}

// parts holds one run's three parts.
type parts struct {
	deploy *deployPhase
	stream *streamPhase
	serve  *servePhase
}

// setUp generates the inputs and deploys what the timed parts need: the
// first deploy block, every stream version and the first serve fleet.
func setUp(cfg config) (*parts, error) {
	p := &parts{deploy: newDeployPhase(cfg.seed)}
	var err error
	if p.stream, err = newStreamPhase(cfg.seed, cfg.trace); err != nil {
		return nil, err
	}
	if p.serve, err = newServePhase(cfg.seed, cfg.out); err != nil {
		return nil, err
	}
	if err := p.serve.deploy(nil); err != nil {
		return nil, err
	}
	if p.deploy.pending, err = deployBlock(cfg.seed, 0, p.deploy.apps); err != nil {
		return nil, err
	}
	return p, nil
}

func measure(cfg config, stdout, stderr io.Writer) (*result, error) {
	var p *parts
	var setup []float64
	for i := 0; i < setupReps; i++ {
		p = nil // the previous set-up is garbage before this one starts
		var err error
		setup = append(setup, quiet(func() { p, err = setUp(cfg) }).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	heapPeak = 0
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	cpu0 := cpuClasses()
	err := interleave(cfg, []*schedPart{
		{name: "deploy", enough: p.deploy.enough,
			step: func() error { p.deploy.step(rec); return nil }},
		{name: "stream", enough: p.stream.enough,
			step: func() error { p.stream.step(rec); return nil }},
		{name: "serve", enough: p.serve.enough,
			step: func() error { return p.serve.step(rec) }},
	})
	cpu1 := cpuClasses()
	if rmErr := os.RemoveAll(p.serve.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	wrong := 0
	for _, t := range []*tally{&p.deploy.tally, &p.stream.tally, &p.serve.tally} {
		res.Attempted += t.attempted
		res.Failed += t.failed
		wrong += t.wrong
		for _, msg := range t.problems {
			fmt.Fprintln(stderr, "perfbench:", msg)
		}
	}
	res.Correct = wrong == 0
	report(stdout, cfg, p, setup)

	if cfg.trace {
		spans := rec.snapshot()
		self := selfTimes(spans)
		layer := map[string]float64{}
		p.deploy.layers(spans, self, layer)
		p.stream.layers(layer)
		if err := p.serve.layers(layer); err != nil {
			return nil, err
		}
		// the deploy times and the commit tail too noisy to gate on (see
		// layers.json), from the untraced samples
		if err := p.deploy.endToEnd(layer); err != nil {
			return nil, err
		}
		p.serve.endToEnd(layer)
		layer["go.gc_share"] = ratio(cpu1.gc-cpu0.gc, cpu1.total-cpu0.total)
		layer["fail_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
		for _, m := range perLayer {
			v, ok := layer[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
		if err := rec.write(spanFile(cfg.out, cfg.workload)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		return res, nil
	}

	e2e, err := endToEnd(p, setup, heapPeak)
	if err != nil {
		return nil, err
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
	}
	return res, nil
}

// schedPart is one workload part under the scheduler.
type schedPart struct {
	name   string
	enough func() bool  // has the samples its metrics need
	step   func() error // runs one slice
	spent  time.Duration
}

// interleave runs the parts one slice at a time, always picking the part
// furthest behind its share of the measuring time, until every part has
// spent its budget and has enough samples. Spreading each part over the
// whole run, rather than one stretch of it, exposes every part to the
// same mix of quiet and busy moments of the host.
func interleave(cfg config, parts []*schedPart) error {
	for {
		var next *schedPart
		var lag float64
		for _, p := range parts {
			budget := cfg.budget(p.name)
			if p.spent >= budget && p.enough() {
				continue
			}
			if l := p.spent.Seconds() / budget.Seconds(); next == nil || l < lag {
				next, lag = p, l
			}
		}
		if next == nil {
			return nil
		}
		t0 := time.Now()
		err := next.step()
		next.spent += time.Since(t0)
		if err != nil {
			return err
		}
	}
}

type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"heap_mb", "MiB"},
	{"deploy_src_kb_per_s", "KiB/s"},
	{"orig_msg_us_p50", "us"}, {"orig_msg_us_p99", "us"},
	{"sel_msg_us_p50", "us"}, {"sel_msg_us_p99", "us"},
	{"exh_msg_us_p50", "us"}, {"exh_msg_us_p99", "us"},
	{"serve_msgs_per_s", "msg/s"}, {"serve_commit_us_p50", "us"},
}

var perLayer = []metricDef{
	{"lexer.ms", "ms"}, {"lexer.tokens_per_ms", "1/ms"}, {"parser.self_ms", "ms"},
	{"taint.ms", "ms"}, {"taint.paths", "count"},
	{"policy.parse_ms", "ms"}, {"policy.cache_hit_ratio", "ratio"}, {"policy.cache_lookups_per_msg", "count"},
	{"instrument.ms", "ms"}, {"instrument.sites", "count"},
	{"printer.ms", "ms"}, {"printer.growth", "ratio"},
	{"resolve.ms", "ms"}, {"resolve.dynamic_share", "ratio"},
	{"vm.compile_ms", "ms"}, {"vm.instrs", "count"}, {"vm.delegated_share", "ratio"},
	{"interp.init_ms", "ms"},
	{"interp.steps_per_msg.orig", "count"}, {"interp.steps_per_msg.sel", "count"}, {"interp.steps_per_msg.exh", "count"},
	{"interp.ns_per_step.orig", "ns"}, {"interp.ic_hit_ratio", "ratio"}, {"host.calls_per_msg", "count"},
	{"dift.ops_per_msg.sel", "count"}, {"dift.ops_per_msg.exh", "count"},
	{"dift.track_per_msg.sel", "count"}, {"dift.track_per_msg.exh", "count"},
	{"dift.invoke_per_msg.sel", "count"}, {"dift.invoke_per_msg.exh", "count"},
	{"dift.added_us_per_msg.sel", "us"}, {"dift.added_us_per_msg.exh", "us"},
	{"overhead.sel_ratio", "ratio"}, {"overhead.exh_ratio", "ratio"},
	{"overhead.sel_30hz_worst", "ratio"}, {"overhead.exh_30hz_worst", "ratio"},
	{"go.allocs_per_msg.orig", "count"}, {"go.allocs_per_msg.sel", "count"}, {"go.allocs_per_msg.exh", "count"},
	{"go.allocs_per_deploy", "count"}, {"go.gc_share", "ratio"},
	{"deploy_ms_p50", "ms"}, {"deploy_ms_p99", "ms"}, {"serve_commit_us_p99", "us"},
	{"serve.deploy_ms_p50", "ms"}, {"serve.process_us_p50", "us"}, {"serve.process_us_p99", "us"},
	{"serve.p99_ticks", "ticks"}, {"serve.denied", "count"}, {"serve.shed", "count"},
	{"durable.append_us_p50", "us"}, {"durable.sync_us_p50", "us"}, {"durable.sync_us_p99", "us"},
	{"durable.syncs_per_msg", "count"}, {"durable.bytes_per_msg", "B"}, {"durable.snapshot_ms", "ms"},
	{"fail_frac", "ratio"},
	{"trace.overhead.deploy_ms_p50", "ratio"}, {"trace.overhead.orig_msg_us_p50", "ratio"},
	{"trace.overhead.sel_msg_us_p50", "ratio"}, {"trace.overhead.exh_msg_us_p50", "ratio"},
	{"trace.overhead.serve_commit_us_p50", "ratio"},
}

// endToEnd computes the untraced metrics; a tail whose sample is too
// small is an error, not a number.
func endToEnd(p *parts, setup []float64, peak uint64) (map[string]float64, error) {
	out := map[string]float64{
		"setup_s": median(setup),
		"heap_mb": float64(peak) / (1 << 20),
	}
	if err := p.deploy.endToEnd(out); err != nil {
		return nil, err
	}
	for v, name := range versionNames {
		s := p.stream.samples(v)
		out[name+"_msg_us_p50"] = median(s)
		p99, err := tail(s, 0.99)
		if err != nil {
			return nil, fmt.Errorf("%s_msg_us_p99: %w", name, err)
		}
		out[name+"_msg_us_p99"] = p99
	}
	p.serve.endToEnd(out)
	return out, nil
}

// report prints the input properties and sample counts ahead of the
// result line.
func report(w io.Writer, cfg config, p *parts, setup []float64) {
	sizes := sortedCopy(p.deploy.srcSizes)
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "setup: %d reps, seconds %v\n", len(setup), setup)
	if len(sizes) > 0 {
		fmt.Fprintf(w, "deploy: %d deploys (%d untraced, %d blocks), all sources distinct, source bytes min %.0f median %.0f max %.0f\n",
			p.deploy.attempted, len(p.deploy.ms), p.deploy.blocks, sizes[0], sizes[rank(len(sizes), 0.5)], sizes[len(sizes)-1])
	}
	fmt.Fprintf(w, "stream: %d apps, %d measured frames per version, secret-marked share %.3f\n",
		len(p.stream.apps), p.stream.msgs, ratio(float64(p.stream.marked), float64(p.stream.msgs)))
	fmt.Fprintf(w, "serve: %d batches, %d tenants over %d distinct sources (%d tenants per app), %d arrivals\n",
		p.serve.batch, len(p.serve.apps), p.serve.distinct, tenantsPerApp, p.serve.attempted)
}

// The collector is off for the whole run and collects only when the
// benchmark asks. Every timed stretch (one set-up, a deploy slice, a
// stream slice, a serve fleet's run) starts after a full collection, so
// it pays for its own allocations but never for collecting another
// part's garbage, and its time does not depend on how much of the second
// CPU the host lends a concurrent collector. memoryCap is the limit past
// which the runtime collects anyway; a stretch allocates a few hundred
// MiB at most. The cost of collection itself is a per-layer
// metric (go.gc_share), as are the allocations that drive it
// (go.allocs_per_*).
const memoryCap = 1 << 30

// heapPeak is the most heap in use at the end of a timed stretch since
// it was last reset: with the collector off, a stretch's end is its peak.
var heapPeak uint64

// quiet collects, then runs f and returns its wall time, the collection
// excluded.
func quiet(f func()) time.Duration {
	runtime.GC()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	heapPeak = max(heapPeak, s[0].Value.Uint64())
	return d
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

type cpuTotals struct{ gc, total float64 }

func cpuClasses() cpuTotals {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTotals{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}
