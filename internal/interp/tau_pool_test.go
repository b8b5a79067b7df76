package interp

import (
	"fmt"
	"strings"
	"testing"

	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// The fused __t.* call opcode hands an intact τ's host methods a pooled
// argument slice. These tests run tracked programs on the VM and on the
// tree-walker and require the same sink writes, violations and tracker
// stats: a pooled slice recycled while still live would show up as a
// wrong argument, and so as a different label or verdict.

const poolPolicyJSON = `{
  "labellers": { "Hi": "v => \"hi\"", "Lo": "v => \"lo\"" },
  "rules": [ "lo -> hi" ]
}`

// trackedObs is what one engine's run of a tracked program shows.
type trackedObs struct {
	writes, violations, stats, logs, err string
	steps                                int64
	intact                               bool // τ fast path still valid after the run
}

func runTracked(t *testing.T, src string, noVM bool) trackedObs {
	t.Helper()
	prog, err := parser.Parse("pool.js", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	resolve.Resolve(prog)
	ip := New()
	ip.NoVM = noVM
	tr := ip.InstallTracker(loadPolicy(t, ip, poolPolicyJSON)) // audit mode
	var o trackedObs
	if err := ip.Run(prog); err != nil {
		o.err = err.Error()
	}
	var w, v []string
	for _, s := range ip.IO.Writes {
		w = append(w, fmt.Sprintf("%s.%s(%s)=%s", s.Module, s.Op, s.Target, ToString(s.Value)))
	}
	for _, x := range tr.Violations() {
		v = append(v, x.Error())
	}
	o.writes, o.violations = strings.Join(w, "\n"), strings.Join(v, "\n")
	o.stats = fmt.Sprintf("%+v", tr.Stats())
	o.logs = strings.Join(ip.ConsoleOut, "\n")
	o.steps = ip.Steps()
	o.intact = ip.tauIntact()
	return o
}

// engineParity runs src on both engines, requires identical observations
// and returns the VM's.
func engineParity(t *testing.T, src string) trackedObs {
	t.Helper()
	vmObs, walkObs := runTracked(t, src, false), runTracked(t, src, true)
	if vmObs != walkObs {
		t.Fatalf("vm/walker divergence\nvm:   %+v\nwalk: %+v", vmObs, walkObs)
	}
	if vmObs.err != "" {
		t.Fatalf("run failed: %s", vmObs.err)
	}
	return vmObs
}

// TestTauCheckNoArgs: a bare __t.check() returns undefined on both engines
// instead of indexing into an empty argument list.
func TestTauCheckNoArgs(t *testing.T) {
	o := engineParity(t, `console.log(__t.check()); console.log(__t.check("only"));`)
	if o.logs != "undefined\nonly" {
		t.Fatalf("logs = %q", o.logs)
	}
}

// TestTauPooledArgsReentry: __t.invoke and __t.call targets run more
// instrumented code, so nested fused calls take pooled slices while the
// outer call's slice is live. __t.call reads its args[0] again after the
// callee returns: were the outer slice recycled into the nested
// __t.call(declassify, ...), the outer call would take itself for a
// declassification and skip labelling its result.
func TestTauPooledArgsReentry(t *testing.T) {
	o := engineParity(t, `
const fs = require("fs");
const secret = __t.label("s3cr3t", "Hi");
const lo = __t.label({}, "Lo");
const helper = {
  wrap: function(x, n) {
    const t = __t.binaryOp("+", x, __t.track("-"));
    const parts = __t.invoke(t, "split", ["-"], "inner-split");
    __t.check(parts, lo, "inner-check");
    if (n > 0) {
      return __t.invoke(helper, "wrap", [t, n - 1], "recurse");
    }
    return __t.call(function(y) { return __t.binaryOp("+", y, "!"); }, [t], "leaf");
  }
};
const out = __t.invoke(helper, "wrap", [secret, 3], "outer");
fs.writeFileSync("/out", __t.check(out, lo, "sink"));
const plain = __t.call(function(a, b) { return __t.binaryOp("+", a, b); }, ["x", "y"], "plain");
fs.writeFileSync("/plain", __t.check(plain, lo, "plain-sink"));
const inner = function(y) {
  __t.call(declassify, [y, "none"], "nested-declassify");
  return "derived";
};
const viaCall = __t.call(inner, [secret], "outer-call");
fs.writeFileSync("/call", __t.check(viaCall, lo, "call-sink"));
console.log(out, plain, viaCall);
`)
	if !o.intact {
		t.Fatal("program left the τ fast path; the test no longer covers pooled arguments")
	}
	for _, want := range []string{"at sink ", "at call-sink "} {
		if !strings.Contains(o.violations, want) {
			t.Fatalf("violations = %q, missing %q", o.violations, want)
		}
	}
	if strings.Contains(o.violations, "plain-sink") {
		t.Fatalf("violations = %q, unlabelled value flagged", o.violations)
	}
}

// TestTauPooledArgsDeriveExtra: __t.derive with more sources than a pooled
// slice's spare capacity, and with the labelled source last.
func TestTauPooledArgsDeriveExtra(t *testing.T) {
	o := engineParity(t, `
const fs = require("fs");
const secret = __t.label("s", "Hi");
const lo = __t.label({}, "Lo");
const d = __t.derive({ k: 1 }, 1, 2, 3, 4, 5, 6, 7, 8, 9, secret);
const e = __t.derive({ k: 2 }, "a", "b");
fs.writeFileSync("/d", __t.check(d, lo, "derived-sink"));
fs.writeFileSync("/e", __t.check(e, lo, "clean-sink"));
`)
	if !o.intact {
		t.Fatal("program left the τ fast path")
	}
	if !strings.Contains(o.violations, "derived-sink") || strings.Contains(o.violations, "clean-sink") {
		t.Fatalf("violations = %q", o.violations)
	}
}

// TestTauPooledArgsMutatedFallback: writing to __t mid-run drops the fused
// calls onto the fallback path, which must still behave the same.
func TestTauPooledArgsMutatedFallback(t *testing.T) {
	o := engineParity(t, `
const fs = require("fs");
const lo = __t.label({}, "Lo");
function leak(tag) {
  const s = __t.label(tag, "Hi");
  fs.writeFileSync("/" + tag, __t.check(__t.binaryOp("+", s, "!"), lo, "sink-" + tag));
}
leak("before");
__t.extra = 1;
leak("after");
`)
	if o.intact {
		t.Fatal("mutating __t left the fast path valid")
	}
	if !strings.Contains(o.violations, "sink-before") || !strings.Contains(o.violations, "sink-after") {
		t.Fatalf("violations = %q", o.violations)
	}
}
