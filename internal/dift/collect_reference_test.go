package dift

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"turnstile/internal/policy"
)

// This file keeps the label walk as it stood before boxes carried their
// own labels — every Ref, boxes included, entered the cycle set — as a
// differential oracle for DataLabels and DataIntegrity. The reference
// reads labels through LabelsOf/IntegrityOf, so it follows the labels to
// wherever the tracker stores them, and it reports depth truncation
// instead of poisoning, so the poison latch can be compared too.

// refDataLabels is the reference DataLabels; truncated reports whether the
// walk joined ⊤, which a fail-closed tracker turns into poison.
func refDataLabels(t *Tracker, v any) (union policy.LabelSet, truncated bool) {
	refCollect(t, v, &union, map[uint64]bool{}, 0, &truncated)
	return union, truncated
}

func refCollect(t *Tracker, v any, union *policy.LabelSet, seen map[uint64]bool, depth int, truncated *bool) {
	if depth > maxCollectDepth {
		if _, isRef := v.(Ref); !isRef {
			if _, isArr := t.Adapter.Elements(v); !isArr {
				return
			}
		}
		*union = union.Union(topSet)
		*truncated = true
		return
	}
	if r, ok := v.(Ref); ok {
		if seen[r.RefID()] {
			return
		}
		seen[r.RefID()] = true
		*union = union.Union(t.LabelsOf(v))
	}
	if elems, ok := t.Adapter.Elements(v); ok {
		for _, el := range elems {
			refCollect(t, el, union, seen, depth+1, truncated)
		}
		return
	}
	if b, ok := v.(*Box); ok {
		refCollect(t, b.Val, union, seen, depth+1, truncated)
		return
	}
	if t.cnf && t.props != nil {
		if names, ok := t.props.PropertyNames(v); ok {
			for _, n := range names {
				if pv, found := t.Adapter.Property(v, n); found {
					refCollect(t, pv, union, seen, depth+1, truncated)
				}
			}
		}
	}
}

// refDataIntegrity is the reference DataIntegrity.
func refDataIntegrity(t *Tracker, v any) policy.LabelSet {
	var union policy.LabelSet
	refCollectInteg(t, v, &union, map[uint64]bool{}, 0)
	return union
}

func refCollectInteg(t *Tracker, v any, union *policy.LabelSet, seen map[uint64]bool, depth int) {
	if depth > maxCollectDepth {
		return
	}
	if r, ok := v.(Ref); ok {
		if seen[r.RefID()] {
			return
		}
		seen[r.RefID()] = true
		*union = union.Union(t.IntegrityOf(v))
	}
	if elems, ok := t.Adapter.Elements(v); ok {
		for _, el := range elems {
			refCollectInteg(t, el, union, seen, depth+1)
		}
		return
	}
	if b, ok := v.(*Box); ok {
		refCollectInteg(t, b.Val, union, seen, depth+1)
		return
	}
	if t.props != nil {
		if names, ok := t.props.PropertyNames(v); ok {
			for _, n := range names {
				if pv, found := t.Adapter.Property(v, n); found {
					refCollectInteg(t, pv, union, seen, depth+1)
				}
			}
		}
	}
}

// sortedAdapter lists object properties in sorted order. Which revisit of
// a shared container truncates depends on walk order, so both walks must
// see the same order (the interpreter's adapter lists insertion order).
type sortedAdapter struct{ tAdapter }

func (sortedAdapter) PropertyNames(v any) ([]string, bool) {
	o, ok := v.(*tObj)
	if !ok {
		return nil, false
	}
	names := make([]string, 0, len(o.props))
	for n := range o.props {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, true
}

// oracleTrackers returns a fail-closed flat tracker and a fail-closed CNF
// tracker whose adapter enumerates properties.
func oracleTrackers(tb testing.TB) []*Tracker {
	flat, err := policy.New(nil, nil, nil, policy.FlowComparable)
	if err != nil {
		tb.Fatal(err)
	}
	cnf, err := policy.New(nil, nil, nil, policy.FlowComparable)
	if err != nil {
		tb.Fatal(err)
	}
	if err := cnf.SetCNF(nil, []policy.Declassifier{{Name: "open", Removes: "A"}}, nil); err != nil {
		tb.Fatal(err)
	}
	var out []*Tracker
	for _, p := range []*policy.Policy{flat, cnf} {
		tr := NewTracker(p, sortedAdapter{})
		tr.FailClosed = true
		out = append(out, tr)
	}
	return out
}

// buildGraph decodes prog into a value graph on tr and returns an array
// holding every value built. Each byte is one op on a value stack; ops
// that take an operand read it from the next byte.
func buildGraph(tr *Tracker, prog []byte) any {
	var stack []any
	i := 0
	arg := func() byte {
		if i < len(prog) {
			i++
			return prog[i-1]
		}
		return 0
	}
	pick := func(b byte) any { return stack[int(b)%len(stack)] }
	top := func(k int) []any { return append([]any(nil), stack[len(stack)-min(k, len(stack)):]...) }
	conf := func(b byte) policy.LabelSet {
		var ls []policy.Label
		for j, l := range []policy.Label{"A", "B", "C"} {
			if b&(1<<j) != 0 {
				ls = append(ls, l)
			}
		}
		return policy.NewLabelSet(ls...)
	}
	integ := func(b byte) policy.LabelSet { return conf(b >> 3) }
	label := func(v any, b byte) any { return tr.AttachIntegrity(tr.Attach(v, conf(b)), integ(b)) }
	for i < len(prog) && len(stack) < 256 {
		op := prog[i]
		i++
		switch op % 8 {
		case 0: // plain value
			stack = append(stack, float64(op))
		case 1: // labelled value, boxed unless both sets come out empty
			b := arg()
			stack = append(stack, label(fmt.Sprint("s", b), b))
		case 2: // tracked, unlabelled box
			stack = append(stack, tr.Track(float64(op)))
		case 3: // array of the top k values
			stack = append(stack, newArr(top(int(arg())%5)...))
		case 4: // object holding the top k values as properties
			o := newObj()
			for j, v := range top(int(arg()) % 5) {
				o.props[fmt.Sprint("p", j)] = v
			}
			stack = append(stack, o)
		case 5: // label a stack value in place (a plain one is boxed anew)
			if len(stack) > 0 {
				at := int(arg()) % len(stack)
				stack[at] = label(stack[at], arg())
			}
		case 6: // link one value into a container: sharing and cycles
			if len(stack) > 0 {
				v, c := pick(arg()), pick(arg())
				switch x := c.(type) {
				case *tArr:
					x.elems = append(x.elems, v)
				case *tObj:
					x.props[fmt.Sprint("q", len(x.props))] = v
				}
			}
		case 7: // bury the top value under d single-element arrays
			if len(stack) > 0 {
				stack[len(stack)-1] = nest(stack[len(stack)-1], int(arg())%(maxCollectDepth+4))
			}
		}
	}
	return newArr(stack...)
}

// checkMatchesReference builds prog's graph on each oracle tracker and
// compares DataLabels, DataIntegrity and the poison latch with the
// reference walks.
func checkMatchesReference(tb testing.TB, prog []byte) error {
	for _, tr := range oracleTrackers(tb) {
		root := buildGraph(tr, prog)
		want, truncated := refDataLabels(tr, root)
		got := tr.DataLabels(root)
		if !got.Equal(want) {
			return fmt.Errorf("cnf=%v DataLabels = %v, reference %v (prog %v)", tr.cnf, got, want, prog)
		}
		if deg, _ := tr.Degraded(); deg != truncated {
			return fmt.Errorf("cnf=%v poisoned = %v, reference truncated = %v (prog %v)", tr.cnf, deg, truncated, prog)
		}
		if got, want := tr.DataIntegrity(root), refDataIntegrity(tr, root); !got.Equal(want) {
			return fmt.Errorf("cnf=%v DataIntegrity = %v, reference %v (prog %v)", tr.cnf, got, want, prog)
		}
	}
	return nil
}

// referenceShapes are the graph programs the test and the fuzz corpus
// start from, one per shape the walk must get right.
var referenceShapes = map[string][]byte{
	// labelled, integrity-carrying and tracked boxes in one array
	"array-of-boxes": {1, 0x09, 1, 0x12, 2, 1, 0x24, 3, 3},
	// one box reached through two arrays
	"shared-box": {1, 0x0b, 3, 1, 3, 2, 3, 2},
	// an array holding itself, and a two-array cycle with a labelled box
	"self-containing": {3, 0, 6, 0, 0, 1, 0x01, 3, 1, 6, 2, 2, 6, 1, 2},
	// a labelled box buried past the depth bound: ⊤ and poison
	"beyond-depth": {1, 0x0f, 7, maxCollectDepth + 2},
	// a labelled box exactly at the bound: exact, no ⊤
	"at-depth": {1, 0x0f, 7, maxCollectDepth - 1},
	// objects holding boxes and each other as properties
	"cnf-objects": {1, 0x19, 2, 4, 2, 5, 0, 0x02, 1, 0x24, 4, 1, 6, 0, 1, 6, 1, 0},
	// a deep chain hanging off an object property
	"object-deep": {1, 0x04, 7, maxCollectDepth, 4, 1},
}

func TestDataLabelsMatchesReference(t *testing.T) {
	for name, prog := range referenceShapes {
		if err := checkMatchesReference(t, prog); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	rng := rand.New(rand.NewPCG(14, 1))
	for n := 0; n < 2000; n++ {
		prog := make([]byte, 1+rng.IntN(64))
		for i := range prog {
			prog[i] = byte(rng.UintN(256))
		}
		if err := checkMatchesReference(t, prog); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReferenceShapesCoverPoison: the shape set exercises both verdicts of
// the depth bound, so the poison comparison is not vacuous.
func TestReferenceShapesCoverPoison(t *testing.T) {
	for name, wantTrunc := range map[string]bool{"beyond-depth": true, "at-depth": false, "self-containing": false} {
		tr := oracleTrackers(t)[0]
		if _, truncated := refDataLabels(tr, buildGraph(tr, referenceShapes[name])); truncated != wantTrunc {
			t.Errorf("%s: reference truncated = %v, want %v", name, truncated, wantTrunc)
		}
	}
}

func FuzzDataLabelsMatchesReference(f *testing.F) {
	for _, prog := range referenceShapes {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if err := checkMatchesReference(t, prog); err != nil {
			t.Fatal(err)
		}
	})
}
