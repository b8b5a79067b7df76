package dift

import (
	"testing"

	"turnstile/internal/policy"
)

// TestBoxLabelsLeaveTablesUnchanged: labels on boxed values live on the
// box, so derive/attach/declassify rounds over value types never touch the
// RefID-keyed tables, and a declassified box drops back to a nil set.
func TestBoxLabelsLeaveTablesUnchanged(t *testing.T) {
	tr := cnfTracker(t, "Secret -> Sink")
	holder := tr.Attach(newObj(), policy.NewLabelSet("Secret"))
	l0, i0 := len(tr.labels), len(tr.integ)
	for i := 0; i < 10000; i++ {
		secret := tr.Attach(i, policy.NewLabelSet("Secret"))
		secret = tr.AttachIntegrity(secret, policy.NewLabelSet("Paid"))
		sum := tr.Derive(i+1, secret, holder, tr.Track(i))
		if b, ok := sum.(*Box); !ok || !b.conf.Contains("Secret") || !b.integ.Contains("Paid") {
			t.Fatalf("round %d: derived %v (%T) lost its labels", i, sum, sum)
		}
		out, err := tr.Declassify(sum, "open")
		if err != nil {
			t.Fatalf("round %d: declassify: %v", i, err)
		}
		if b := out.(*Box); b.conf != nil {
			t.Fatalf("round %d: declassified box holds %#v, want nil", i, b.conf)
		}
	}
	if l, in := len(tr.labels), len(tr.integ); l != l0 || in != i0 {
		t.Fatalf("tables grew over boxed rounds: labels %d -> %d, integ %d -> %d", l0, l, i0, in)
	}
}

// TestJoinSharesCopyOnWrite: join hands back an operand that already holds
// the other, and a fresh set otherwise, never mutating either input.
func TestJoinSharesCopyOnWrite(t *testing.T) {
	a := policy.NewLabelSet("A")
	ab := policy.NewLabelSet("A", "B")
	c := policy.NewLabelSet("C")
	same := func(x, y policy.LabelSet) bool {
		x["probe"] = struct{}{}
		_, ok := y["probe"]
		delete(x, "probe")
		return ok
	}
	if got := join(nil, a); !same(got, a) {
		t.Fatal("join(nil, a) copied a")
	}
	if got := join(ab, a); !same(got, ab) {
		t.Fatal("join(ab, a) did not return ab")
	}
	if got := join(a, ab); !same(got, ab) {
		t.Fatal("join(a, ab) did not return ab")
	}
	got := join(a, c)
	if same(got, a) || same(got, c) || !got.Equal(policy.NewLabelSet("A", "C")) {
		t.Fatalf("join(a, c) = %v, want a fresh {A, C}", got)
	}
	if len(a) != 1 || len(c) != 1 {
		t.Fatal("join mutated an operand")
	}
}
