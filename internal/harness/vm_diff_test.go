package harness

import (
	"sync"
	"testing"

	"turnstile/internal/corpus"
)

// The bytecode VM's corpus-wide semantics gates: the tree-walker is the
// differential oracle, and the VM must be indistinguishable from it on
// everything observable — sink traces, violations, tracker statistics,
// console output, error outcomes — across every runnable app and at every
// worker count. The rendered reports (chaos, breakdown, crash, attack,
// gen) are compared across engines in report_matrix_test.go.

// vmCorpusSignatures computes every runnable app's signature on one
// engine with the given worker count.
func vmCorpusSignatures(t *testing.T, noVM bool, parallel, messages int) []string {
	t.Helper()
	runnable := corpus.Runnable(corpus.All())
	sigs, err := mapIndexed(len(runnable), parallel, func(i int) (string, error) {
		return appSignature(runnable[i], noVM, messages)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sigs
}

// TestVMDifferentialFullCorpus compares the VM against the slot-env
// tree-walker (-novm) on the full corpus, sequentially and with 8
// workers: byte-identical signatures, independent of worker count.
func TestVMDifferentialFullCorpus(t *testing.T) {
	const messages = 25
	runnable := corpus.Runnable(corpus.All())
	if len(runnable) == 0 {
		t.Fatal("no runnable corpus apps")
	}

	vmSeq := vmCorpusSignatures(t, false, 1, messages)
	walkSeq := vmCorpusSignatures(t, true, 1, messages)
	for i := range vmSeq {
		if vmSeq[i] != walkSeq[i] {
			t.Errorf("%s: VM and tree-walker diverged:\n--- vm\n%s--- novm\n%s",
				runnable[i].Name, vmSeq[i], walkSeq[i])
		}
	}

	vmPar := vmCorpusSignatures(t, false, 8, messages)
	walkPar := vmCorpusSignatures(t, true, 8, messages)
	for i := range vmSeq {
		if vmSeq[i] != vmPar[i] {
			t.Errorf("%s: VM signature depends on worker count", runnable[i].Name)
		}
		if walkSeq[i] != walkPar[i] {
			t.Errorf("%s: tree-walker signature depends on worker count", runnable[i].Name)
		}
	}
}

// TestVMSharedCacheBothModes: VM and tree-walker preparations of the same
// apps run concurrently in one process, sharing the interpreter package's
// process-wide state (go test -race covers the sharing), and must still
// produce byte-identical signatures.
func TestVMSharedCacheBothModes(t *testing.T) {
	const messages = 25
	runnable := corpus.Runnable(corpus.All())
	if len(runnable) > 6 {
		runnable = runnable[:6]
	}

	modes := []bool{false, true} // noVM
	sigs := make([][]string, len(modes))
	for m := range sigs {
		sigs[m] = make([]string, len(runnable))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(modes)*len(runnable))
	for m, mode := range modes {
		for i, app := range runnable {
			wg.Add(1)
			go func(m, i int, noVM bool, app *corpus.App) {
				defer wg.Done()
				sig, err := appSignature(app, noVM, messages)
				if err != nil {
					errs <- err
					return
				}
				sigs[m][i] = sig
			}(m, i, mode, app)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, app := range runnable {
		if sigs[0][i] != sigs[1][i] {
			t.Errorf("%s: modes diverge when run concurrently:\n--- vm\n%s--- novm\n%s",
				app.Name, sigs[0][i], sigs[1][i])
		}
	}
}
