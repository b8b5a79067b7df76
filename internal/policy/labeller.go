package policy

import (
	"encoding/json"
	"fmt"
	"sort"
)

// LabelFunc is a compiled label function l(x): V → L (§4.3). It receives
// the runtime value(s) it labels — one argument for value labellers, or
// (object, args) for $invoke labellers — and returns the label set.
// Label functions are written by the developer in the IFC policy; in this
// reproduction they are MiniJS arrow-function sources compiled by the core
// package, or plain Go functions in tests.
type LabelFunc func(args ...any) (LabelSet, error)

// CompileFunc turns a label-function source string from a policy document
// into an executable LabelFunc.
type CompileFunc func(source string) (LabelFunc, error)

// Labeller is the (possibly nested) labelling specification for one object
// type. Exactly one of the fields is set:
//
//   - Fn: a leaf — evaluate the label function on the value itself.
//   - Map: "$map" — apply the sub-labeller to each element of an array.
//   - Invoke: "$invoke" — the value is a function; its label is computed at
//     invocation time from (object, args).
//   - Props: property sub-labellers; each named property of the value is
//     labelled by its sub-labeller.
type Labeller struct {
	Name   string // top-level labeller name, for diagnostics
	Fn     LabelFunc
	Map    *Labeller
	Invoke LabelFunc
	Props  map[string]*Labeller
}

// Injection maps a source-code object (identified by file, line and
// variable name) to the labeller that must be attached there (§4.3,
// Figs. 4 and 7). When Line is zero, the injection applies to every
// occurrence of the named object in the file.
type Injection struct {
	File     string `json:"file,omitempty"`
	Line     int    `json:"line"`
	Object   string `json:"object"`
	Labeller string `json:"labeller"`
}

// Policy is a complete IFC policy: labellers, privacy rules (validated into
// a DAG), injection points, and the optional CNF extension (exchange
// rules, declassifiers, endorsements — see cnf.go).
type Policy struct {
	Labellers  map[string]*Labeller
	Rules      []Rule
	Graph      *Graph
	Injections []Injection
	Mode       FlowMode

	// CNF extension; all empty for a flat policy, which keeps the tracker
	// on the flat fast path (HasCNF reports false).
	Exchanges     []Exchange
	Declassifiers map[string]*Declassifier
	Endorsements  map[string]*Endorsement
}

// HasCNF reports whether the policy uses the CNF extension. Trackers use
// this to decide between the flat fast path and the clause-aware path.
func (p *Policy) HasCNF() bool {
	return len(p.Exchanges) > 0 || len(p.Declassifiers) > 0 || len(p.Endorsements) > 0
}

// SetCNF validates and installs the CNF extension. Slices are copied, so
// the caller's backing arrays are never aliased into the policy — two
// applications built from the same parsed policy parts must not be able
// to corrupt each other's clause lists.
func (p *Policy) SetCNF(exchanges []Exchange, decs []Declassifier, ends []Endorsement) error {
	if err := validateCNF(exchanges, decs, ends); err != nil {
		return err
	}
	p.Exchanges = make([]Exchange, len(exchanges))
	for i, ex := range exchanges {
		p.Exchanges[i] = Exchange{Guard: ex.Guard, From: ex.From, Adds: append([]Label(nil), ex.Adds...)}
	}
	p.Declassifiers = make(map[string]*Declassifier, len(decs))
	for i := range decs {
		d := decs[i]
		p.Declassifiers[d.Name] = &d
	}
	p.Endorsements = make(map[string]*Endorsement, len(ends))
	for i := range ends {
		e := ends[i]
		p.Endorsements[e.Name] = &e
	}
	return nil
}

// Declassifier returns the named declassifier, if declared.
func (p *Policy) Declassifier(name string) (*Declassifier, bool) {
	d, ok := p.Declassifiers[name]
	return d, ok
}

// Endorsement returns the named endorsement, if declared.
func (p *Policy) Endorsement(name string) (*Endorsement, bool) {
	e, ok := p.Endorsements[name]
	return e, ok
}

// Labeller returns the named labeller, or an error naming the available
// ones.
func (p *Policy) Labeller(name string) (*Labeller, error) {
	if l, ok := p.Labellers[name]; ok {
		return l, nil
	}
	var names []string
	for n := range p.Labellers {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("policy: unknown labeller %q (have %v)", name, names)
}

// New assembles and validates a policy from parts. The labeller map and
// the rule/injection slices are copied: a Policy never aliases its
// caller's backing storage, so policies built from shared parts (e.g. by a
// harness reusing one parsed document across cached apps) stay independent
// of later caller-side mutation.
func New(labellers map[string]*Labeller, rules []Rule, injections []Injection, mode FlowMode) (*Policy, error) {
	g, err := NewGraph(rules)
	if err != nil {
		return nil, err
	}
	for _, inj := range injections {
		if _, ok := labellers[inj.Labeller]; !ok {
			return nil, fmt.Errorf("policy: injection for %q at %s:%d references unknown labeller %q",
				inj.Object, inj.File, inj.Line, inj.Labeller)
		}
	}
	owned := make(map[string]*Labeller, len(labellers))
	for name, l := range labellers {
		owned[name] = l
	}
	return &Policy{
		Labellers:  owned,
		Rules:      append([]Rule(nil), rules...),
		Graph:      g,
		Injections: append([]Injection(nil), injections...),
		Mode:       mode,
	}, nil
}

// jsonPolicy mirrors the JSON policy document format of Figs. 4 and 7,
// plus the CNF extension blocks (all optional).
type jsonPolicy struct {
	Labellers     map[string]json.RawMessage `json:"labellers"`
	Rules         []string                   `json:"rules"`
	Injections    []Injection                `json:"injections"`
	Mode          string                     `json:"mode,omitempty"`
	Exchanges     []Exchange                 `json:"exchanges,omitempty"`
	Declassifiers []Declassifier             `json:"declassifiers,omitempty"`
	Endorsements  []Endorsement              `json:"endorsements,omitempty"`
}

// ParseJSON parses a policy document. Leaf label-function sources are
// compiled with the supplied compiler.
func ParseJSON(data []byte, compile CompileFunc) (*Policy, error) {
	var doc jsonPolicy
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("policy: invalid JSON: %w", err)
	}
	labellers := make(map[string]*Labeller, len(doc.Labellers))
	for name, raw := range doc.Labellers {
		l, err := parseLabeller(raw, compile)
		if err != nil {
			return nil, fmt.Errorf("policy: labeller %q: %w", name, err)
		}
		l.Name = name
		labellers[name] = l
	}
	rules := make([]Rule, 0, len(doc.Rules))
	for _, rs := range doc.Rules {
		r, err := ParseRule(rs)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	mode := FlowComparable
	switch doc.Mode {
	case "", "comparable":
	case "strict":
		mode = FlowStrict
	default:
		return nil, fmt.Errorf("policy: unknown mode %q", doc.Mode)
	}
	p, err := New(labellers, rules, doc.Injections, mode)
	if err != nil {
		return nil, err
	}
	if err := p.SetCNF(doc.Exchanges, doc.Declassifiers, doc.Endorsements); err != nil {
		return nil, err
	}
	return p, nil
}

func parseLabeller(raw json.RawMessage, compile CompileFunc) (*Labeller, error) {
	// leaf: a label-function source string
	var src string
	if err := json.Unmarshal(raw, &src); err == nil {
		if compile == nil {
			return nil, fmt.Errorf("label-function source present but no compiler provided")
		}
		fn, err := compile(src)
		if err != nil {
			return nil, fmt.Errorf("compiling %q: %w", src, err)
		}
		return &Labeller{Fn: fn}, nil
	}
	// node: an object with $map / $invoke / property keys
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, fmt.Errorf("labeller must be a string or object")
	}
	out := &Labeller{}
	for key, sub := range obj {
		switch key {
		case "$map":
			inner, err := parseLabeller(sub, compile)
			if err != nil {
				return nil, fmt.Errorf("$map: %w", err)
			}
			out.Map = inner
		case "$invoke":
			var fsrc string
			if err := json.Unmarshal(sub, &fsrc); err != nil {
				return nil, fmt.Errorf("$invoke must be a function source string")
			}
			if compile == nil {
				return nil, fmt.Errorf("$invoke present but no compiler provided")
			}
			fn, err := compile(fsrc)
			if err != nil {
				return nil, fmt.Errorf("compiling $invoke %q: %w", fsrc, err)
			}
			out.Invoke = fn
		default:
			inner, err := parseLabeller(sub, compile)
			if err != nil {
				return nil, fmt.Errorf("property %q: %w", key, err)
			}
			if out.Props == nil {
				out.Props = map[string]*Labeller{}
			}
			out.Props[key] = inner
		}
	}
	if out.Map != nil && (out.Invoke != nil || out.Props != nil) ||
		(out.Invoke != nil && out.Props != nil) {
		return nil, fmt.Errorf("labeller mixes $map, $invoke and property keys")
	}
	if out.Map == nil && out.Invoke == nil && out.Props == nil {
		return nil, fmt.Errorf("empty labeller")
	}
	return out, nil
}
