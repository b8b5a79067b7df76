package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// The spans of one deploy or one message share a trace ID; parent 0 marks
// a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs skip it. The serve workload
// records from several tenant goroutines, hence the lock.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(trace int64, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its children cover.
// Children are clipped to the parent's interval and merged first, so
// overlapping children are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			ps := spans[p]
			lo, hi := max(s.Start, ps.Start), min(s.End, ps.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]time.Duration{lo, hi})
			}
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi time.Duration
		open := false
		for _, c := range iv {
			if open && c[0] <= curHi {
				curHi = max(curHi, c[1])
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = c[0], c[1], true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// perTrace sums the self time of every span named name within each
// trace, in milliseconds, one value per trace that has such a span.
func perTrace(spans []span, self []time.Duration, name string) []float64 {
	sums := make(map[int64]time.Duration)
	var order []int64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		if _, seen := sums[s.Trace]; !seen {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += self[i]
	}
	out := make([]float64, len(order))
	for i, t := range order {
		out[i] = ms(sums[t])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanFile names the span dump of a traced run; each traced run of a
// workload replaces the last one's, so repeated runs do not pile up.
func spanFile(out, workload string) string {
	return filepath.Join(out, "spans-"+workload+".jsonl")
}
