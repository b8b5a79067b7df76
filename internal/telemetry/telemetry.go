// Package telemetry is Turnstile's zero-dependency observability layer:
// lock-cheap counters and histograms for the DIFT hot path, a deterministic
// structured event tracer, and renderers for the metric tables the bench
// CLI emits.
//
// Design constraints (see DESIGN.md, "Telemetry"):
//
//   - Disabled must be free. Every instrumented component holds a nilable
//     pointer (a *Metrics, a *Tracer, or pre-resolved *Counter handles) and
//     guards each hook with a single nil check, so the telemetry-off hot
//     path differs from the pre-telemetry code by one predictable branch.
//     The benchmark gate in scripts/verify.sh holds this line.
//
//   - Enabled must be deterministic. Counters count operations, histograms
//     bucket operation-derived quantities (label-set sizes, virtual-clock
//     latencies), and the tracer timestamps events on the interpreter's
//     virtual clock — never the wall clock. A run's telemetry is therefore
//     a pure function of the executed operations: byte-identical across
//     repeats, worker counts, and chaos replays of the same seed.
//
//   - Zero dependencies. The package imports only the standard library and
//     nothing from this repository, so every layer (policy, dift, interp,
//     nodered, harness, CLIs) can feed it without import cycles.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Interpreter fast-path counter names. The resolver/slot-environment
// machinery (internal/resolve, internal/interp) accumulates these locally
// and flushes them here; the "interp." prefix keeps them out of the
// "dift."-prefixed overhead-breakdown tables, which must stay
// byte-identical with the fast paths on or off.
const (
	CtrEnvSlotReads  = "interp.env.slot_reads"
	CtrEnvDynReads   = "interp.env.dyn_reads"
	CtrEnvSlotWrites = "interp.env.slot_writes"
	CtrEnvDynWrites  = "interp.env.dyn_writes"
	CtrICHits        = "interp.ic.hits"
	CtrICMisses      = "interp.ic.misses"

	// VM coverage: instructions the bytecode VM delegated to the
	// tree-walker, one counter per delegating opcode
	CtrVMDelegatedExpr = "interp.vm.delegated.eval_expr"
	CtrVMDelegatedStmt = "interp.vm.delegated.exec_stmt"
	CtrVMDelegatedTry  = "interp.vm.delegated.try"

	CtrResolveScopes   = "interp.resolve.scopes"
	CtrResolveSlots    = "interp.resolve.slots"
	CtrResolveResolved = "interp.resolve.resolved"
	CtrResolveDynamic  = "interp.resolve.dynamic"
)

// Serve-daemon counter names, flushed once per tenant when the shutdown
// drain completes (internal/serve).
const (
	CtrServeAdmitted   = "serve.admitted"
	CtrServeProcessed  = "serve.processed"
	CtrServeDenied     = "serve.denied"
	CtrServeShed       = "serve.shed"
	CtrServeDrained    = "serve.drained"
	CtrServeAbandoned  = "serve.abandoned"
	CtrServeReloads    = "serve.reloads"
	CtrServeViolations = "serve.violations"
)

// Counter is one monotonically increasing metric. Handles are resolved
// once (Metrics.Counter) and then incremented lock-free, so a hot loop
// pays one atomic add per event and no map lookups.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds values v with 2^(i-1) <= v < 2^i (bucket 0 holds v <= 0), and the
// last bucket absorbs everything larger.
const histBuckets = 20

// Histogram is a power-of-two-bucket histogram over non-negative int64
// observations (label-set sizes, virtual-clock ticks). Observations are
// lock-free atomic adds.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns the per-bucket counts.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// bucketLabel names bucket i by its inclusive upper bound.
func bucketLabel(i int) string {
	if i == 0 {
		return "≤0"
	}
	if i == histBuckets-1 {
		return fmt.Sprintf(">%d", int64(1)<<uint(i-1))
	}
	return fmt.Sprintf("≤%d", (int64(1)<<uint(i))-1)
}

// Metrics is a named registry of counters and histograms. Handle
// resolution (Counter/Histogram) takes a mutex; the returned handles are
// lock-free. One Metrics instance belongs to one application run; the
// harness aggregates across apps after the runs complete.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Add increments the named counter by n (resolving it each call; hot
// paths should hold a *Counter handle instead).
func (m *Metrics) Add(name string, n int64) { m.Counter(name).Add(n) }

// Histogram returns the named histogram, creating it on first use.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// Observe records v in the named histogram.
func (m *Metrics) Observe(name string, v int64) { m.Histogram(name).Observe(v) }

// CounterValue returns the named counter's value (0 when absent).
func (m *Metrics) CounterValue(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// Counters returns a name→value snapshot of every counter.
func (m *Metrics) Counters() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		out[name] = c.Value()
	}
	return out
}

// CountersWithPrefix returns the snapshot restricted to names with the
// given prefix, with the prefix stripped.
func (m *Metrics) CountersWithPrefix(prefix string) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range m.Counters() {
		if strings.HasPrefix(name, prefix) {
			out[name[len(prefix):]] = v
		}
	}
	return out
}

// SumWithPrefix sums every counter whose name has the prefix.
func (m *Metrics) SumWithPrefix(prefix string) int64 {
	var total int64
	for name, v := range m.Counters() {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// Render formats the registry as a fixed-width table: counters sorted by
// name, then histograms sorted by name with their non-empty buckets. The
// output is a pure function of the recorded values, so identical runs
// render byte-identically.
func (m *Metrics) Render() string {
	m.mu.Lock()
	cnames := make([]string, 0, len(m.counters))
	for n := range m.counters {
		cnames = append(cnames, n)
	}
	hnames := make([]string, 0, len(m.hists))
	for n := range m.hists {
		hnames = append(hnames, n)
	}
	counters := make(map[string]int64, len(cnames))
	for _, n := range cnames {
		counters[n] = m.counters[n].Value()
	}
	hists := make(map[string]*Histogram, len(hnames))
	for _, n := range hnames {
		hists[n] = m.hists[n]
	}
	m.mu.Unlock()

	sort.Strings(cnames)
	sort.Strings(hnames)
	var b strings.Builder
	b.WriteString("metrics\n")
	if len(cnames) == 0 && len(hnames) == 0 {
		b.WriteString("  (empty)\n")
		return b.String()
	}
	for _, n := range cnames {
		fmt.Fprintf(&b, "  %-40s %10d\n", n, counters[n])
	}
	for _, n := range hnames {
		h := hists[n]
		fmt.Fprintf(&b, "  %-40s count %d sum %d", n, h.Count(), h.Sum())
		buckets := h.Buckets()
		for i, c := range buckets {
			if c > 0 {
				fmt.Fprintf(&b, " %s:%d", bucketLabel(i), c)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
