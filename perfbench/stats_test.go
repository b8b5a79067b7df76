package main

import (
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so tail must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	v, err := tail(seq(1000), 0.99)
	if err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", v)
	}
	if _, err := tail(seq(999), 0.99); err == nil || !strings.Contains(err.Error(), "sample too small") {
		t.Fatalf("999 samples leave 9 beyond p99, want a too-small error, got %v", err)
	}
	if _, err := tail(nil, 0.5); err == nil {
		t.Fatal("empty sample must be an error")
	}
	if v, err := tail(seq(21), 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11 with ten beyond", v, err)
	}
}

func TestMedianAndRank(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2 {
		t.Fatalf("median of even count = %v, want the lower middle 2", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median of nothing = %v, want 0", m)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1, 0.99, 0}, {100, 0.99, 98}, {100, 0, 0}, {100, 1, 99}, {5, 2, 4}} {
		if got := rank(c.n, c.q); got != c.want {
			t.Errorf("rank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}
