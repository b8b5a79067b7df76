package harness

import (
	"sync"
	"testing"

	"turnstile/internal/corpus"
)

// Regression for the policy aliasing bug: two preparations of the same app
// used to receive policies whose rule/injection/CNF slices aliased the
// caller's (and each other's) backing arrays, so one app's tracker
// mutating label state could corrupt the other's. With the defensive
// copies in policy.New/SetCNF each prepared app owns its policy outright;
// running both concurrently under -race must stay clean.
func TestPreparedAppsConcurrentLabelMutation(t *testing.T) {
	apps := corpus.Runnable(corpus.All())
	if len(apps) < 2 {
		t.Fatal("need at least two runnable apps")
	}
	// prepare the same two apps twice each
	var preps []*PreparedApp
	for _, app := range []*corpus.App{apps[0], apps[1], apps[0], apps[1]} {
		p, err := PrepareApp(app, false)
		if err != nil {
			t.Fatal(err)
		}
		preps = append(preps, p)
	}

	var wg sync.WaitGroup
	for _, p := range preps {
		for _, r := range []*Runner{p.Selective, p.Exhaustive} {
			wg.Add(1)
			go func(r *Runner) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					if err := r.Process(i); err != nil {
						t.Errorf("%s %s: msg %d: %v", r.App.Name, r.Mode, i, err)
						return
					}
				}
			}(r)
		}
	}
	wg.Wait()

	// same-app preparations must have ended in identical tracker states:
	// shared mutable policy state would have let the runs interfere
	for i, j := range map[int]int{0: 2, 1: 3} {
		a, b := preps[i].Exhaustive.IP.Tracker.Stats(), preps[j].Exhaustive.IP.Tracker.Stats()
		if a != b {
			t.Errorf("%s: same-app preparations diverged: %+v vs %+v", preps[i].App.Name, a, b)
		}
	}
}
