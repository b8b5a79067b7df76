package resolve_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"turnstile/internal/corpus"
	"turnstile/internal/guard"
	"turnstile/internal/interp"
	"turnstile/internal/parser"
	"turnstile/internal/resolve"
)

// observe runs src once with bounded budgets and returns everything
// observable: console lines, sink writes, and the run error rendering (""
// when the run is clean). A resolved parse runs on the default engine; an
// unresolved one runs on the tree-walker over the map-walk environment.
func observe(src string, resolved bool) (out []string, errStr string) {
	prog, err := parser.Parse("eq.js", src)
	if err != nil {
		return nil, "parse: " + err.Error()
	}
	ip := interp.New()
	if resolved {
		resolve.Resolve(prog)
	} else {
		ip.NoVM = true
	}
	ip.MaxSteps = 150_000
	ip.SetGuard(guard.New(guard.Limits{
		Fuel:          300_000,
		MaxDepth:      512,
		MaxAlloc:      1 << 20,
		DeadlineTicks: 100_000,
	}))
	if err := ip.Run(prog); err != nil {
		errStr = err.Error()
	}
	out = append(out, ip.ConsoleOut...)
	for _, w := range ip.IO.Writes {
		out = append(out, fmt.Sprintf("%s.%s %s %s", w.Module, w.Op, w.Target, interp.Inspect(w.Value)))
	}
	return out, errStr
}

// FuzzResolveEquivalence is the resolver's semantics-preservation property
// as a fuzz target: on any parseable program, the slot-env fast path and
// the tree-walker on an unresolved parse (the map walk) must produce
// identical console output, identical sink writes, and the identical
// error (or identical success) under the same budgets. The hand-written
// seeds mirror the instrument-fuzz corpus so the two batteries stress the
// same language surface; every runnable corpus source and every file of
// one generated app per stratum add program-level breadth.
func FuzzResolveEquivalence(f *testing.F) {
	seeds := []string{
		`const fs = require("fs");
const ws = fs.createWriteStream("/out");
fs.createReadStream("/in").on("data", d => { ws.write(d.trim()); });`,
		`let a = 0; for (let i = 0; i < 3; i++) { a += i; } console.log(a);`,
		`function f(x) { return x ? f(x - 1) : 0; } f(3);`,
		`const o = { m() { return this.v; }, v: 7 }; o.m();`,
		`class C { constructor() { this.n = 1; } bump() { this.n++; } }
new C().bump();`,
		`try { JSON.parse("{"); } catch (e) { console.log(e.name); }`,
		"`a${1 + 2}b`.split('a');",
		`async function load(x) { return x + 1; }
async function main() { const v = await load(41); console.log(v); }
main();`,
		`new Promise((resolve) => resolve(7)).then(v => console.log(v * 2));`,
		`function sum(a, b, c) { return a + b + c; }
const xs = [1, 2, 3];
console.log(sum(...xs), [0, ...xs, 4].length);`,
		`const base = { a: 1, b: 2 };
const more = { ...base, c: 3 };
console.log(JSON.stringify(more));`,
		"const who = \"cam\" ; console.log(`frame:${who}:${`inner${1+1}`}`);",
		"let acc = \"\"; for (let i = 0; i < 3; i++) { acc = `${acc}|${i * i}`; } console.log(acc);",
		`class Sensor {
  constructor(id) { this.id = id; this.seen = 0; }
  read(v) { this.seen++; return this.id + ":" + v; }
  static kind() { return "sensor"; }
}
class Camera extends Sensor {
  read(v) { return "cam/" + v; }
}
console.log(new Camera("c1").read("f0"), Sensor.kind());`,
		`const w = { get(x) { return { get(y) { return { get(z) { return x + y + z; } }; } }; } };
console.log(w.get(1).get(2).get(3), w.get(w.get(0).get(0).get(0)).get(4).get(5));`,
		`let secret = 1, leak = 0;
if (secret > 0) { leak = 1; } else { leak = 2; }
while (leak < 3) { if (secret) { leak++; } }
console.log(leak);`,
		// scoping-sweep shapes: implicit globals across assignment forms,
		// per-iteration let bindings, const loop variables, shadowed consts
		`plain = 1; compound += 2; update++;
for (k in { a: 1 }) { } for (v of [1, 2]) { }
console.log(plain, compound, update, k, v);`,
		`var fns = [];
for (let i = 0; i < 3; i = i + 1) { fns.push(function () { return i; }); }
var f0 = fns[0], f2 = fns[2];
console.log(f0() + f2());`,
		`for (const x of [1, 2]) { x = 9; }`,
		`const c = 1; { let c = 2; c = 3; console.log(c); } console.log(c);`,
		`const k = 1; { k = 2; }`,
		`console.log(nowhere);`,
		`function f() { return typeof ghost; } console.log(f());`,
		`while (true) { }`,
		`function f(n) { return f(n + 1); } f(0);`,
		`let s = "xxxxxxxx"; while (true) { s = s + s; }`,
		`function t(n) { setTimeout(function() { t(n + 1); }, 1000); } t(0);`,
		"console.log(" + strings.Repeat("(", 60) + "1 + 2" + strings.Repeat(")", 60) + ");",
	}
	for _, app := range corpus.Runnable(corpus.All()) {
		seeds = append(seeds, app.Source)
	}
	for i, stratum := range corpus.GenStratumNames() {
		ga, err := corpus.Generate(stratum, uint64(i)+1, i)
		if err != nil {
			f.Fatal(err)
		}
		for _, name := range slices.Sorted(maps.Keys(ga.Files)) {
			seeds = append(seeds, ga.Files[name])
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		slotOut, slotErr := observe(src, true)
		mapOut, mapErr := observe(src, false)
		if slotErr != mapErr {
			t.Fatalf("error divergence:\n slot: %q\n  map: %q\ninput: %q", slotErr, mapErr, src)
		}
		if len(slotOut) != len(mapOut) {
			t.Fatalf("output length divergence: %d vs %d\n slot: %q\n  map: %q\ninput: %q",
				len(slotOut), len(mapOut), slotOut, mapOut, src)
		}
		for i := range slotOut {
			if slotOut[i] != mapOut[i] {
				t.Fatalf("output line %d divergence:\n slot: %q\n  map: %q\ninput: %q",
					i, slotOut[i], mapOut[i], src)
			}
		}
	})
}
