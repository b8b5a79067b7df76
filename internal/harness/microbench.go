package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// Interpreter microbenchmarks comparing the slot-indexed environment fast
// path against the map-walk fallback, and the bytecode VM against both.
// Each workload is one MiniJS program stressing a single interpreter
// dimension. The map walk is the tree-walker running an unresolved parse
// of the same source: no slot coordinates and no inline caches, so any
// delta is attributable to the environment representation, the inline
// caches and the dispatch strategy alone.

// MicrobenchPrograms are the three workloads of the bench gate. The inner
// iteration counts are sized so one run takes a few milliseconds on the
// slot path — long enough to swamp interpreter start-up, short enough to
// repeat for a best-of measurement.
var MicrobenchPrograms = []struct {
	Name   string
	Source string
}{
	{
		// locals read/written in a tight loop: the resolver turns every
		// access into a (depth, slot) pair, so this is the pure env-lookup
		// benchmark behind the slot-speedup acceptance gate
		Name: "identifier-heavy",
		Source: `
function spin(n) {
  let a = 1, b = 2, c = 3, d = 4;
  let s = 0;
  for (let i = 0; i < n; i = i + 1) {
    s = s + a + b - c + d + i;
    a = b;
    b = c;
    c = d;
    d = (s % 7) + 1;
  }
  return s;
}
var out = 0;
for (let r = 0; r < 40; r = r + 1) {
  out = out + spin(400);
}
`,
	},
	{
		// function- and method-call dominated: exercises the per-call env
		// construction (this/arguments/param slots) and the call-site
		// method inline cache
		Name: "call-heavy",
		Source: `
function add(a, b) { return a + b; }
function mul(a, b) { return a * b; }
var counter = {
  n: 0,
  step: function (d) { this.n = this.n + d; return this.n; }
};
function work(n) {
  let s = 0;
  for (let i = 0; i < n; i = i + 1) {
    s = add(s, mul(i, 3));
    s = add(s, counter.step(1));
  }
  return s;
}
var out = 0;
for (let r = 0; r < 30; r = r + 1) {
  out = out + work(300);
}
`,
	},
	{
		// property read/write dominated: exercises the member-read inline
		// cache (own properties, stable receiver) and its write
		// invalidation path
		Name: "property-heavy",
		Source: `
var obj = { x: 1, y: 2, z: 3, total: 0 };
function work(n) {
  let s = 0;
  for (let i = 0; i < n; i = i + 1) {
    s = s + obj.x + obj.y + obj.z;
    obj.total = s;
    obj.x = (obj.x % 5) + 1;
  }
  return s;
}
var out = 0;
for (let r = 0; r < 30; r = r + 1) {
  out = out + work(400);
}
`,
	},
}

// MicrobenchResult is one workload's measurement on both execution modes.
type MicrobenchResult struct {
	Name string `json:"name"`
	// SlotNs / MapNs are best-of-repeats wall times for one full program
	// run on the tree-walker over a resolved (slot) and an unresolved
	// (map-walk) parse.
	SlotNs int64 `json:"slot_ns"`
	MapNs  int64 `json:"map_ns"`
	// Speedup is MapNs / SlotNs (>1 means the slot path is faster).
	Speedup float64 `json:"speedup"`
}

// MicrobenchReport aggregates a bench run into the committed
// BENCH_*.json shape.
type MicrobenchReport struct {
	Tool       string             `json:"tool"`
	Repeats    int                `json:"repeats"`
	Benchmarks []MicrobenchResult `json:"benchmarks"`
}

// RunMicrobench measures every workload on both tree-walking execution
// modes, best-of-repeats per mode. The VM is disabled on both sides: this
// report isolates the environment representation (slot vs map-walk) and is
// the committed BENCH_baseline.json; the VM comparison lives in
// RunVMMicrobench / BENCH_vm.json.
func RunMicrobench(repeats int) (*MicrobenchReport, error) {
	if repeats <= 0 {
		repeats = 5
	}
	rep := &MicrobenchReport{Tool: "turnstile-bench -bench", Repeats: repeats}
	for _, p := range MicrobenchPrograms {
		slot, err := benchProgram(p.Name, p.Source, true, true, repeats)
		if err != nil {
			return nil, err
		}
		mp, err := benchProgram(p.Name, p.Source, false, true, repeats)
		if err != nil {
			return nil, err
		}
		r := MicrobenchResult{Name: p.Name, SlotNs: slot.Nanoseconds(), MapNs: mp.Nanoseconds()}
		if r.SlotNs > 0 {
			r.Speedup = float64(r.MapNs) / float64(r.SlotNs)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	return rep, nil
}

// VMMicrobenchResult is one workload's measurement across the three
// execution modes: bytecode VM, slot-env tree-walker (-novm) and the
// tree-walker on an unresolved parse (map walk).
type VMMicrobenchResult struct {
	Name   string `json:"name"`
	VMNs   int64  `json:"vm_ns"`
	SlotNs int64  `json:"slot_ns"`
	MapNs  int64  `json:"map_ns"`
	// SpeedupVsSlot is SlotNs / VMNs — the acceptance metric of the VM
	// perf gate (>1 means the VM beats the slot-env tree-walker).
	SpeedupVsSlot float64 `json:"speedup_vs_slot"`
	SpeedupVsMap  float64 `json:"speedup_vs_map"`
}

// VMMicrobenchReport aggregates a VM bench run into the committed
// BENCH_vm.json shape.
type VMMicrobenchReport struct {
	Tool       string               `json:"tool"`
	Repeats    int                  `json:"repeats"`
	Benchmarks []VMMicrobenchResult `json:"benchmarks"`
}

// RunVMMicrobench measures every workload on the bytecode VM and both
// tree-walking modes, best-of-repeats per mode.
func RunVMMicrobench(repeats int) (*VMMicrobenchReport, error) {
	if repeats <= 0 {
		repeats = 5
	}
	rep := &VMMicrobenchReport{Tool: "turnstile-bench -benchvm", Repeats: repeats}
	for _, p := range MicrobenchPrograms {
		vmT, err := benchProgram(p.Name, p.Source, true, false, repeats)
		if err != nil {
			return nil, err
		}
		slot, err := benchProgram(p.Name, p.Source, true, true, repeats)
		if err != nil {
			return nil, err
		}
		mp, err := benchProgram(p.Name, p.Source, false, true, repeats)
		if err != nil {
			return nil, err
		}
		r := VMMicrobenchResult{Name: p.Name, VMNs: vmT.Nanoseconds(), SlotNs: slot.Nanoseconds(), MapNs: mp.Nanoseconds()}
		if r.VMNs > 0 {
			r.SpeedupVsSlot = float64(r.SlotNs) / float64(r.VMNs)
			r.SpeedupVsMap = float64(r.MapNs) / float64(r.VMNs)
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	return rep, nil
}

// benchProgram parses (and, when resolved, resolves) one workload and
// returns the best-of-repeats wall time of a full run on a fresh
// interpreter in the requested execution mode. The AST is shared across
// repeats, so parse cost is excluded; bytecode compilation happens once on the first VM
// repeat and is shared through the interpreter's program-module table
// only within a repeat (each repeat gets a fresh interpreter, so compile
// cost is included in every VM sample, biasing against the VM).
func benchProgram(name, src string, resolved, noVM bool, repeats int) (time.Duration, error) {
	prog, err := parser.Parse(name+".js", src)
	if err != nil {
		return 0, fmt.Errorf("harness: microbench %s: %w", name, err)
	}
	if resolved {
		resolve.Resolve(prog)
	}
	best := time.Duration(0)
	for r := 0; r < repeats; r++ {
		ip := interp.New()
		ip.NoVM = noVM
		start := time.Now()
		if err := ip.Run(prog); err != nil {
			return 0, fmt.Errorf("harness: microbench %s (resolved=%v novm=%v): %w", name, resolved, noVM, err)
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// ExportMicrobenchJSON renders the report as the committed BENCH_*.json
// artifact (indented, trailing newline).
func ExportMicrobenchJSON(rep *MicrobenchReport) ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ExportVMMicrobenchJSON renders the VM report as the committed
// BENCH_vm.json artifact (indented, trailing newline).
func ExportVMMicrobenchJSON(rep *VMMicrobenchReport) ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RenderMicrobench formats the bench table for the CLI. Wall times vary
// run to run, so unlike the experiment reports this output is NOT
// byte-deterministic.
func RenderMicrobench(rep *MicrobenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interpreter microbenchmarks: slot env vs map-walk env (best of %d)\n", rep.Repeats)
	fmt.Fprintf(&b, "%-18s %12s %12s %9s\n", "workload", "slot", "map-walk", "speedup")
	for _, r := range rep.Benchmarks {
		fmt.Fprintf(&b, "%-18s %12v %12v %8.2fx\n",
			r.Name, time.Duration(r.SlotNs).Round(time.Microsecond),
			time.Duration(r.MapNs).Round(time.Microsecond), r.Speedup)
	}
	return b.String()
}

// RenderVMMicrobench formats the VM bench table for the CLI. Like
// RenderMicrobench, it is NOT byte-deterministic.
func RenderVMMicrobench(rep *VMMicrobenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Interpreter microbenchmarks: bytecode VM vs tree-walkers (best of %d)\n", rep.Repeats)
	fmt.Fprintf(&b, "%-18s %12s %12s %12s %9s %9s\n", "workload", "vm", "slot", "map-walk", "vs slot", "vs map")
	for _, r := range rep.Benchmarks {
		fmt.Fprintf(&b, "%-18s %12v %12v %12v %8.2fx %8.2fx\n",
			r.Name, time.Duration(r.VMNs).Round(time.Microsecond),
			time.Duration(r.SlotNs).Round(time.Microsecond),
			time.Duration(r.MapNs).Round(time.Microsecond),
			r.SpeedupVsSlot, r.SpeedupVsMap)
	}
	return b.String()
}
