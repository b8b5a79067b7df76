package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"turnstile/internal/guard"
)

// This file implements the bounded worker-pool scheduler behind the
// harness's parallel experiment paths (RunE1, MeasureApps,
// parallel source loading in the CLIs). Work items are claimed from an
// atomic counter and results are written into index-addressed slots, so
// the output order — and therefore every rendered table and figure — is
// identical to a sequential run regardless of worker interleaving.

// DefaultParallelism is the worker count the CLIs use when -parallel is
// not given: one worker per available CPU.
func DefaultParallelism() int { return runtime.NumCPU() }

// clampWorkers normalizes a requested worker count against the number of
// work items. 0 means "pick for me" (GOMAXPROCS, the scheduler's actual
// concurrency ceiling).
func clampWorkers(parallel, n int) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel < 1 {
		parallel = 1
	}
	return parallel
}

// mapIndexed runs fn(i) for every i in [0, n) on up to parallel workers
// and returns the results in index order. With parallel <= 1 (or a single
// item) it degenerates to the plain sequential loop, failing fast on the
// first error exactly like the pre-parallel harness did. With more
// workers, a failure stops items beyond the lowest failing index from
// being claimed, while everything below it still runs — so the lowest
// failing index is always reached and the returned error is the same one
// a sequential run would have reported.
func mapIndexed[T any](n, parallel int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	// contain worker panics: an adversarial work item must surface as a
	// typed *guard.PipelineError from the pool, not crash the process (a
	// panic on a pool goroutine is unrecoverable for the whole test run)
	raw := fn
	fn = func(i int) (T, error) {
		var v T
		err := guard.Contain("worker", fmt.Sprintf("item %d", i), func() error {
			var e error
			v, e = raw(i)
			return e
		})
		return v, err
	}
	parallel = clampWorkers(parallel, n)
	if parallel == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var minFailed atomic.Int64 // lowest index that returned an error so far
	minFailed.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				// claims ascend, and minFailed only decreases: once this
				// worker's claim passes the failure bound, so will all its
				// later claims
				if i >= n || int64(i) > minFailed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) on up to parallel workers,
// waiting for all of them. It is the error-only variant of the pool used
// by callers that fill their own index-addressed slices (for example the
// CLI's parallel source loader).
func ForEach(n, parallel int, fn func(i int) error) error {
	_, err := mapIndexed(n, parallel, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
