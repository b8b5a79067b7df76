package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a reported tail percentile must have
// at least this many samples strictly above its rank, or the sample is
// too small to report it.
const minBeyond = 10

// rank is the nearest-rank index of quantile q in n sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// sortedCopy returns xs sorted, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of unsorted samples (the lower middle for even counts); 0 when
// there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), 0.5)]
}

// tail returns the q-quantile of unsorted samples under the percentile
// rule, or an error saying the sample is too small.
func tail(xs []float64, q float64) (float64, error) {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0, fmt.Errorf("no samples for p%g", q*100)
	}
	i := rank(len(s), q)
	if beyond := len(s) - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("sample too small for p%g: %d samples leave %d beyond it, need %d",
			q*100, len(s), beyond, minBeyond)
	}
	return s[i], nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// geomean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
