package nodered

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// runHealthScenario deploys the resilience flow (a throwing node beside a
// healthy recorder), pumps messages, and returns a canonical rendering of
// everything observable: the Health counters, the sink writes, and the
// console output. With mapWalk the packages stay unresolved and run on
// the tree-walker (the map walk); otherwise they are resolved.
func runHealthScenario(t *testing.T, mapWalk bool) string {
	t.Helper()
	ip := interp.New()
	ip.NoVM = mapWalk
	rt := New(ip)
	for name, src := range map[string]string{
		"upper.js":  upperNodePkg,
		"boom.js":   boomNodePkg,
		"record.js": recordNodePkg,
	} {
		prog, err := parser.Parse(name, src)
		if err != nil {
			t.Fatal(err)
		}
		if !mapWalk {
			resolve.Resolve(prog)
		}
		if err := rt.LoadPackageAST(name, prog); err != nil {
			t.Fatal(err)
		}
	}
	flow := &Flow{Nodes: []NodeDef{
		{ID: "src", Type: "upper", Wires: [][]string{{"bad", "ok"}}},
		{ID: "bad", Type: "boom"},
		{ID: "ok", Type: "record", Config: map[string]any{"path": "/ok"}},
	}}
	if err := rt.Deploy(flow); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < 5; i++ {
		if err := rt.Inject("src", mkMsg(fmt.Sprintf("m%d", i))); err != nil {
			fmt.Fprintf(&b, "inject %d: %v\n", i, err)
		}
	}
	fmt.Fprintf(&b, "health: %+v\n", rt.Health)
	for _, w := range ip.IO.Writes {
		fmt.Fprintf(&b, "write: %s.%s %s %v\n", w.Module, w.Op, w.Target, w.Value)
	}
	for _, line := range ip.ConsoleOut {
		fmt.Fprintf(&b, "console: %s\n", line)
	}
	return b.String()
}

// The flow runtime's degradation counters must not depend on the
// execution mode: handler errors, drops and sink writes are identical on
// the slot-env fast path and the map walk.
func TestHealthCountersResolveDifferential(t *testing.T) {
	slot := runHealthScenario(t, false)
	mapWalk := runHealthScenario(t, true)
	if slot != mapWalk {
		t.Fatalf("health differential diverged:\n--- slot\n%s--- map walk\n%s", slot, mapWalk)
	}
	// the breaker quarantines the throwing node after 3 consecutive
	// failures, so the counters must show 3 errors and 2 drops
	if !strings.Contains(slot, "HandlerErrors:3") || !strings.Contains(slot, "Dropped:2") {
		t.Fatalf("scenario did not exercise handler errors:\n%s", slot)
	}
}
