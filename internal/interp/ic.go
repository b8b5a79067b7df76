package interp

import (
	"turnstile/internal/ast"
	"turnstile/internal/telemetry"
)

// Per-call-site monomorphic inline caches for property dispatch.
//
// Each non-computed MemberExpr gets one cache slot, indexed by its AST
// node ID. An entry remembers the receiver object and the value last
// fetched from it, guarded by the receiver's version counter (bumped on
// every property write or delete). Method-call sites additionally cache
// one-hop prototype loads — the class-method pattern — guarded by the
// receiver's shape counter (bumped only when keys are added or removed,
// so `this.x = 5` on an existing field does not invalidate the method
// cache), the prototype's identity and the prototype's version.
//
// Caching is restricted to cases where the uncached path performs no
// observable side effect: own properties of plain *Object receivers, and
// for call sites one-hop prototype hits. Reads that would clone a bound
// method (GetMember on a non-own *Function) allocate a fresh RefID and
// are never cached, keeping RefID allocation order — and therefore sink
// traces — identical with and without the caches.

// icEntry is one call site's cache line.
type icEntry struct {
	node      *ast.MemberExpr // owning site; guards against cross-program node-ID collisions
	epoch     uint64          // ip.icEpoch at fill time; a program swap retires the entry
	recv      *Object
	recvVer   uint64
	recvShape uint64
	proto     *Object // non-nil for a one-hop prototype method entry
	protoVer  uint64
	val       Value
}

// identIC is one OpIdent site's dynamic-global lookup cache line. A
// valid entry asserts: the last full chain walk for this identifier
// resolved to the Globals vars map, and envMapDefines has not moved
// since, so no environment anywhere can have gained a nearer map
// binding — the current value is whatever Globals holds now (in-place
// assignments stay visible; map bindings are never deleted). The VM
// then skips the walk and its per-scope slot-layout probes.
type identIC struct {
	node  *ast.Ident
	epoch uint64 // ip.icEpoch at fill time
	dyn   uint64 // envMapDefines at fill time
}

// ensureICs sizes the cache tables for a program's node-ID space. Tables
// only grow; entries from previously-run programs are retired by the
// interpreter's IC epoch (bumped on program swap in Run), not just the
// node-pointer guard — a reused node ID with an aliasing AST allocation
// must never validate a stale cached Value.
func (ip *Interp) ensureICs(maxID int) {
	if maxID <= len(ip.ics) {
		return
	}
	ics := make([]icEntry, maxID)
	copy(ics, ip.ics)
	ip.ics = ics
	idents := make([]identIC, maxID)
	copy(idents, ip.identICs)
	ip.identICs = idents
}

// icRead serves a non-computed property read on a plain object. It
// returns (value, true) on an own-property hit or fill; (nil, false)
// sends the caller to the uncached GetMember path (prototype chains,
// misses, host fallbacks).
func (ip *Interp) icRead(node *ast.MemberExpr, o *Object, name string) (Value, bool) {
	id := node.NodeID()
	if id < 0 || id >= len(ip.ics) {
		return nil, false
	}
	e := &ip.ics[id]
	if e.node == node && e.epoch == ip.icEpoch && e.recv == o && e.proto == nil && e.recvVer == o.version {
		ip.icHits++
		return e.val, true
	}
	ip.icMisses++
	if v, own := o.GetOwn(name); own {
		*e = icEntry{node: node, epoch: ip.icEpoch, recv: o, recvVer: o.version, val: v}
		return v, true
	}
	return nil, false
}

// icMethod serves a non-computed method-call callee lookup on a plain
// object, caching own properties and one-hop prototype methods. A false
// return sends the caller to the uncached CallMethod path.
func (ip *Interp) icMethod(node *ast.MemberExpr, o *Object, name string) (Value, bool) {
	id := node.NodeID()
	if id < 0 || id >= len(ip.ics) {
		return nil, false
	}
	e := &ip.ics[id]
	if e.node == node && e.epoch == ip.icEpoch && e.recv == o {
		if e.proto == nil {
			if e.recvVer == o.version {
				ip.icHits++
				return e.val, true
			}
		} else if e.recvShape == o.shape && e.proto == o.Proto && e.protoVer == e.proto.version {
			ip.icHits++
			return e.val, true
		}
	}
	ip.icMisses++
	if v, own := o.GetOwn(name); own {
		*e = icEntry{node: node, epoch: ip.icEpoch, recv: o, recvVer: o.version, val: v}
		return v, true
	}
	if p := o.Proto; p != nil {
		if v, ok := p.GetOwn(name); ok {
			*e = icEntry{node: node, epoch: ip.icEpoch, recv: o, recvShape: o.shape, proto: p, protoVer: p.version, val: v}
			return v, true
		}
	}
	return nil, false
}

// FlushEnvTelemetry moves the accumulated fast-path and VM-coverage
// counters into the attached metrics registry (under "interp.*", outside
// the "dift." prefix rendered in overhead-breakdown tables) and resets
// them. No-op without a registry.
func (ip *Interp) FlushEnvTelemetry() {
	m := ip.Metrics
	if m == nil {
		return
	}
	flush := func(name string, n *int64) {
		if *n != 0 {
			m.Add(name, *n)
			*n = 0
		}
	}
	flush(telemetry.CtrEnvSlotReads, &ip.envSlotReads)
	flush(telemetry.CtrEnvDynReads, &ip.envDynReads)
	flush(telemetry.CtrEnvSlotWrites, &ip.envSlotWrites)
	flush(telemetry.CtrEnvDynWrites, &ip.envDynWrites)
	flush(telemetry.CtrICHits, &ip.icHits)
	flush(telemetry.CtrICMisses, &ip.icMisses)
	flush(telemetry.CtrVMDelegatedExpr, &ip.vmDelegatedExpr)
	flush(telemetry.CtrVMDelegatedStmt, &ip.vmDelegatedStmt)
	flush(telemetry.CtrVMDelegatedTry, &ip.vmDelegatedTry)
}
