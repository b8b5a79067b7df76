package main

import (
	"path/filepath"
	"testing"
	"time"
)

func sp(id, parent int, trace int64, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		sp(1, 0, 1, "root", 0, 100),
		sp(2, 1, 1, "a", 10, 40),
		sp(3, 1, 1, "b", 30, 60), // overlaps a: the union [10,60] is covered once
		sp(4, 2, 1, "a.child", 15, 20),
		sp(5, 1, 1, "late", 90, 120), // runs past its parent: only [90,100] counts
		sp(6, 0, 2, "other", 0, 7),
	}
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 5, 30, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesChildInsideChild(t *testing.T) {
	// two children nested in time (one contains the other) cover the outer
	// interval once
	spans := []span{
		sp(1, 0, 1, "root", 0, 50),
		sp(2, 1, 1, "outer", 5, 45),
		sp(3, 1, 1, "inner", 10, 20),
	}
	if got := selfTimes(spans)[0]; got != 10 {
		t.Fatalf("root self = %v, want 10", got)
	}
}

func TestPerTraceSumsSelfTimeByTrace(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		sp(1, 0, 7, "x", 0, 2*ms),
		sp(2, 0, 7, "x", 3*ms, 4*ms),
		sp(3, 0, 9, "x", 0, 5*ms),
		sp(4, 0, 9, "y", 0, 1*ms),
	}
	got := perTrace(spans, selfTimes(spans), "x")
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("perTrace = %v, want [3 5]", got)
	}
}

func TestRecorderNilAndWrite(t *testing.T) {
	var none *recorder
	if id := none.begin(1, 0, "x"); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	none.end(0)

	r := newRecorder()
	root := r.begin(1, 0, "root")
	child := r.begin(1, root, "child")
	r.end(child)
	r.end(root)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
	if err := r.write(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}
