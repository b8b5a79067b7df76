package harness

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapIndexedOrderAndConcurrency(t *testing.T) {
	const n = 100
	for _, parallel := range []int{0, 1, 3, 8, 200} {
		var inFlight, peak atomic.Int64
		out, err := mapIndexed(n, parallel, func(i int) (int, error) {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d", parallel, i, v)
			}
		}
		if parallel >= 1 && peak.Load() > int64(parallel) {
			t.Fatalf("parallel=%d: %d workers ran at once", parallel, peak.Load())
		}
	}
}

func TestMapIndexedZeroItems(t *testing.T) {
	out, err := mapIndexed(0, 8, func(i int) (int, error) { return 0, errors.New("never called") })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapIndexedLowestIndexError(t *testing.T) {
	// every item fails; the reported error must be the lowest-index one so
	// repeated failing runs are deterministic
	_, err := mapIndexed(50, 8, func(i int) (int, error) {
		return 0, fmt.Errorf("item %d", i)
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if err.Error() != "item 0" {
		t.Fatalf("err = %v, want item 0", err)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	if err := ForEach(10, 4, func(i int) error {
		if i == 3 {
			return sentinel
		}
		return nil
	}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if err := ForEach(10, 4, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
