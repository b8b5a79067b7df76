// The attack corpus: adversarial applications written to defeat the
// tracker, after the evasion catalogue of the empirical JavaScript
// information-flow study (PAPERS.md) — control-flow channel encoding,
// implicit-flow laundering through Node-RED-style wire chains, declassifier
// and endorsement abuse, and dynamic-property label smuggling. Each app
// carries ground truth: the violation sites that MUST still be reported
// (MustCatch) and the sanctioned flows that must stay clean (MustAllow).
// The harness runs them with exhaustive instrumentation, implicit flows and
// the tracker in audit mode, then scores precision/recall against the
// ground truth; TestReportMatrix gates on zero missed must-catch flows.
package corpus

import (
	"fmt"
)

// AttackApp is one adversarial application with built-in ground truth.
type AttackApp struct {
	Name string
	// Vector is a one-line description of the laundering technique.
	Vector string
	// Source is the application code (one file, Name+".js").
	Source string
	// Policy is the IFC policy JSON the app runs under (CNF extension
	// blocks included where the attack targets them).
	Policy string
	// MustCatch lists violation-site prefixes that must each match at
	// least one recorded violation ("name.js:LINE:" for sink sites,
	// "declassify:NAME"/"endorse:NAME" for CNF-rule refusals).
	MustCatch []string
	// MustAllow lists site prefixes that must match no violation at all —
	// sanctioned flows an over-tainting tracker would flag.
	MustAllow []string
}

// attackPolicy assembles the corpus policy: secrets labelled Secret,
// sink sockets labelled Public, and the single rule Public -> Secret so a
// Secret→sink flow is comparable-but-forbidden under the default
// comparable mode. cnf, when non-empty, is the JSON fragment declaring the
// CNF extension blocks the app attacks.
func attackPolicy(cnf string) string {
	base := `{
  "labellers": {
    "AsSecret": "v => \"Secret\"",
    "AsSink": "v => \"Public\""
  },
  "rules": [ "Public -> Secret" ],
  "injections": [
    { "object": "secret", "labeller": "AsSecret" },
    { "object": "out", "labeller": "AsSink" },
    { "object": "ch", "labeller": "AsSink" },
    { "object": "status", "labeller": "AsSink" }
  ]`
	if cnf != "" {
		return base + ",\n" + cnf + "\n}"
	}
	return base + "\n}"
}

// cnfAudit declares the declassifier/endorsement pair the abuse apps
// target: "release" discharges Secret but only in decision contexts
// endorsed by "audit".
const cnfAudit = `  "declassifiers": [ { "name": "release", "removes": "Secret", "requires": "Audited" } ],
  "endorsements": [ { "name": "audit", "adds": "Audited" } ]`

// cnfExchange declares the licence-exchange rule the forge app targets:
// data carrying the Paid fact may add Licensed as an alternative to Secret
// clauses.
const cnfExchange = `  "exchanges": [ { "guard": "Paid", "from": "Secret", "adds": ["Licensed"] } ],
  "endorsements": [ { "name": "pay", "adds": "Paid" } ]`

// cnfEnable is a minimal CNF block whose only purpose is switching the
// tracker onto the clause-aware paths (deep property collection).
const cnfEnable = `  "endorsements": [ { "name": "unused", "adds": "Unused" } ]`

// evilRouter is Snippet 1's sender: the secret is never written anywhere —
// it steers WHICH of 64 channels receives a constant ping. Every executed
// channel write runs under a secret pc and must be caught as an implicit
// flow; the status heartbeat must stay clean.
func evilRouter() *AttackApp {
	const secret = "TOPSECRET-PLAN"
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "` + secret + `";`)
	s.add(`const status = net.connect(9000);`)
	s.add(`const chans = [];`)
	s.add(`for (let i = 0; i < 64; i++) { const ch = net.connect(9100 + i); chans.push(ch); }`)
	s.add(`for (let i = 0; i < secret.length; i++) {`)
	s.add(`  const code = secret.charCodeAt(i) % 64;`)
	writeLine := make([]int, 64)
	for k := 0; k < 64; k++ {
		writeLine[k] = s.add(fmt.Sprintf(`  if (code === %d) { chans[%d].write("p"); }`, k, k))
	}
	s.add(`}`)
	allow := s.add(`status.write("router online");`)
	app := &AttackApp{
		Name:   "evil-router",
		Vector: "64-channel control-flow encoding",
		Source: s.String(),
		Policy: attackPolicy(""),
	}
	hit := make(map[int]bool)
	for i := 0; i < len(secret); i++ {
		hit[int(secret[i])%64] = true
	}
	for k := 0; k < 64; k++ {
		if hit[k] {
			app.MustCatch = append(app.MustCatch, sitePrefix(app.Name, writeLine[k]))
		}
	}
	app.MustAllow = []string{sitePrefix(app.Name, allow)}
	return app
}

// evilReader is Snippet 1's receiver: the secret is rebuilt bit by bit
// from branch decisions into a string of '0'/'1' characters that never
// touched the secret value directly — only pc labels connect them.
func evilReader() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "EXFIL-ME";`)
	s.add(`const out = net.connect(9000);`)
	s.add(`const status = net.connect(9001);`)
	s.add(`let acc = "";`)
	s.add(`for (let i = 0; i < secret.length; i++) {`)
	s.add(`  const c = secret.charCodeAt(i);`)
	s.add(`  if (c % 2 === 1) { acc = acc + "1"; } else { acc = acc + "0"; }`)
	s.add(`}`)
	catch := s.add(`out.write(acc);`)
	allow := s.add(`status.write("reader idle");`)
	return &AttackApp{
		Name:      "evil-reader",
		Vector:    "bit reassembly from branch decisions",
		Source:    s.String(),
		Policy:    attackPolicy(""),
		MustCatch: []string{sitePrefix("evil-reader", catch)},
		MustAllow: []string{sitePrefix("evil-reader", allow)},
	}
}

// wireLaunder copies the secret through a chain of Node-RED-style wire
// nodes, rebuilding it character by character into fresh objects so no
// single assignment looks like a direct flow.
func wireLaunder() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "PATIENT-RECORD";`)
	s.add(`const out = net.connect(9000);`)
	s.add(`const status = net.connect(9001);`)
	s.add(`function node1(msg) { return { payload: msg.payload, topic: "wire" }; }`)
	s.add(`function node2(msg) { const fresh = { topic: msg.topic }; fresh.payload = msg.payload; return fresh; }`)
	s.add(`function node3(msg) {`)
	s.add(`  let r = "";`)
	s.add(`  for (let i = 0; i < msg.payload.length; i++) { r = r + msg.payload.charAt(i); }`)
	s.add(`  return { payload: r, topic: msg.topic };`)
	s.add(`}`)
	s.add(`const m = node3(node2(node1({ payload: secret, topic: "wire" })));`)
	catch := s.add(`out.write(m.payload);`)
	allow := s.add(`status.write("wire clean");`)
	return &AttackApp{
		Name:      "wire-launder",
		Vector:    "laundering through wire-node chain",
		Source:    s.String(),
		Policy:    attackPolicy(""),
		MustCatch: []string{sitePrefix("wire-launder", catch)},
		MustAllow: []string{sitePrefix("wire-launder", allow)},
	}
}

// declassifyAbuse calls the sanctioned declassifier from inside a
// secret-conditioned branch: robust declassification must refuse (the
// branch taken reveals the secret, so low-integrity control is steering
// the release) and the still-labelled value must be caught at the sink.
// The same declassifier used at top level is sanctioned and must pass.
func declassifyAbuse() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "TOPSECRET";`)
	s.add(`const out = net.connect(9000);`)
	s.add(`const rel = declassify("" + secret, "release");`)
	allowRel := s.add(`out.write(rel);`)
	s.add(`const tag = secret.charAt(0);`)
	s.add(`if (tag === "T") {`)
	s.add(`  const stolen = declassify("" + secret, "release");`)
	catch := s.add(`  out.write(stolen);`)
	s.add(`}`)
	allowDone := s.add(`out.write("audit complete");`)
	return &AttackApp{
		Name:   "declassify-abuse",
		Vector: "declassifier under secret control",
		Source: s.String(),
		// requires is omitted on purpose: a declassifier with no integrity
		// requirement must still refuse under ANY secret pc
		Policy: attackPolicy(`  "declassifiers": [ { "name": "release", "removes": "Secret" } ]`),
		MustCatch: []string{
			"declassify:release",
			sitePrefix("declassify-abuse", catch),
		},
		MustAllow: []string{
			sitePrefix("declassify-abuse", allowRel),
			sitePrefix("declassify-abuse", allowDone),
		},
	}
}

// declassifyLoop steers declassification bit by bit: each loop iteration
// conditionally declassifies one character of the secret, so the set of
// released characters IS the secret. Every in-branch declassification must
// be refused and the accumulated string caught at the sink.
func declassifyLoop() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "SPYCODE";`)
	s.add(`const out = net.connect(9000);`)
	s.add(`const status = net.connect(9001);`)
	s.add(`let leaked = "";`)
	s.add(`for (let i = 0; i < secret.length; i++) {`)
	s.add(`  const bit = secret.charCodeAt(i) % 2;`)
	s.add(`  if (bit === 1) {`)
	s.add(`    leaked = leaked + declassify("" + secret.charAt(i), "release");`)
	s.add(`  }`)
	s.add(`}`)
	catch := s.add(`out.write(leaked);`)
	allow := s.add(`status.write("scan finished");`)
	return &AttackApp{
		Name:   "declassify-loop",
		Vector: "bit-steered declassification",
		Source: s.String(),
		Policy: attackPolicy(`  "declassifiers": [ { "name": "release", "removes": "Secret" } ]`),
		MustCatch: []string{
			"declassify:release",
			sitePrefix("declassify-loop", catch),
		},
		MustAllow: []string{sitePrefix("declassify-loop", allow)},
	}
}

// endorseAbuse mints the Audited fact from inside a secret branch (opaque
// endorsement — which inputs get endorsed would itself leak) and then uses
// it to unlock the declassifier. Both refusals must fire and the leak must
// be caught at the sink.
func endorseAbuse() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "LAUNCHKEY";`)
	s.add(`const out = net.connect(9000);`)
	s.add(`const flag = secret.length > 5;`)
	s.add(`if (flag) {`)
	s.add(`  const evil = endorse(true, "audit");`)
	s.add(`  const oops = declassify("" + secret, "release");`)
	catch := s.add(`  out.write(oops);`)
	s.add(`}`)
	allow := s.add(`out.write("endorse audit done");`)
	return &AttackApp{
		Name:   "endorse-abuse",
		Vector: "opaque endorsement laundering",
		Source: s.String(),
		Policy: attackPolicy(cnfAudit),
		MustCatch: []string{
			"endorse:audit",
			"declassify:release",
			sitePrefix("endorse-abuse", catch),
		},
		MustAllow: []string{sitePrefix("endorse-abuse", allow)},
	}
}

// endorseGate is the sanctioned counterpart of endorseAbuse: the
// secret-derived decision is endorsed transparently at top level, so the
// in-branch declassification is robust and must NOT be refused. The write
// inside the scope is still a residual implicit flow (writing at all
// reveals the branch) and remains a must-catch.
func endorseGate() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "LAUNCHKEY";`)
	s.add(`const out = net.connect(9000);`)
	s.add(`const approved = endorse(secret.length > 3, "audit");`)
	s.add(`if (approved) {`)
	s.add(`  const ok = declassify("" + secret, "release");`)
	catch := s.add(`  out.write(ok);`)
	s.add(`}`)
	allow := s.add(`out.write("gate done");`)
	return &AttackApp{
		Name:   "endorse-gate",
		Vector: "endorsed decision unlocks declassify",
		Source: s.String(),
		Policy: attackPolicy(cnfAudit),
		MustCatch: []string{
			sitePrefix("endorse-gate", catch),
		},
		MustAllow: []string{
			"declassify:release",
			"endorse:audit",
			sitePrefix("endorse-gate", allow),
		},
	}
}

// exchangeForge targets the licence-exchange rule: a bare secret write has
// no Paid fact and must be caught; bundling the secret with an endorsed
// payment token satisfies the exchange guard, widens the Secret clause
// with the Licensed alternative, and must pass.
func exchangeForge() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "MODELWEIGHTS";`)
	s.add(`const out = net.connect(9000);`)
	catch := s.add(`out.write("" + secret);`)
	s.add(`const token = endorse({ receipt: 4242 }, "pay");`)
	s.add(`const bundle = [token, "" + secret];`)
	allowPaid := s.add(`out.write(bundle);`)
	allowDone := s.add(`out.write("forge done");`)
	return &AttackApp{
		Name:      "exchange-forge",
		Vector:    "exchange without integrity guard",
		Source:    s.String(),
		Policy:    attackPolicy(cnfExchange),
		MustCatch: []string{sitePrefix("exchange-forge", catch)},
		MustAllow: []string{
			sitePrefix("exchange-forge", allowPaid),
			sitePrefix("exchange-forge", allowDone),
		},
	}
}

// dynamicPropSmuggle stashes the secret under a computed property key on
// an otherwise clean object, then ships the object. Only deep property
// collection (the CNF-mode tracker) reaches the smuggled label.
func dynamicPropSmuggle() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "BIOMETRICS";`)
	s.add(`const out = net.connect(9000);`)
	s.add(`const pkg = { kind: "status", uptime: 123 };`)
	s.add(`const key = "st" + "ash";`)
	s.add(`pkg[key] = secret;`)
	catch := s.add(`out.write(pkg);`)
	allow := s.add(`out.write("heartbeat");`)
	return &AttackApp{
		Name:      "dynamic-prop-smuggle",
		Vector:    "computed-key property smuggling",
		Source:    s.String(),
		Policy:    attackPolicy(cnfEnable),
		MustCatch: []string{sitePrefix("dynamic-prop-smuggle", catch)},
		MustAllow: []string{sitePrefix("dynamic-prop-smuggle", allow)},
	}
}

// pcClearProbe leaks through the dynamic extent of the pc: the sink write
// lives in a helper defined at top level but CALLED from a secret branch,
// so a static view of its body looks clean — only the dynamic pc stack
// connects the write to the secret.
func pcClearProbe() *AttackApp {
	var s srcBuilder
	s.add(`const net = require('net');`)
	s.add(`const secret = "GEOFENCE";`)
	s.add(`const out = net.connect(9000);`)
	s.add(`const status = net.connect(9001);`)
	catch := s.add(`function beacon() { out.write("ping"); }`)
	s.add(`if (secret.charAt(0) === "G") { beacon(); }`)
	allow := s.add(`status.write("probe done");`)
	return &AttackApp{
		Name:      "pc-clear-probe",
		Vector:    "helper called under secret pc",
		Source:    s.String(),
		Policy:    attackPolicy(""),
		MustCatch: []string{sitePrefix("pc-clear-probe", catch)},
		MustAllow: []string{sitePrefix("pc-clear-probe", allow)},
	}
}

// AttackApps generates the attack corpus, deterministically ordered.
func AttackApps() []*AttackApp {
	return []*AttackApp{
		evilRouter(),
		evilReader(),
		wireLaunder(),
		declassifyAbuse(),
		declassifyLoop(),
		endorseAbuse(),
		endorseGate(),
		exchangeForge(),
		dynamicPropSmuggle(),
		pcClearProbe(),
	}
}

// AttackByName finds an attack app.
func AttackByName(apps []*AttackApp, name string) *AttackApp {
	for _, a := range apps {
		if a.Name == name {
			return a
		}
	}
	return nil
}
