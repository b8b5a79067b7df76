package dift

// LabelTableSizes reports the sizes of t's RefID-keyed label tables, for
// the growth tests in package dift_test.
func LabelTableSizes(t *Tracker) (labels, integ int) { return len(t.labels), len(t.integ) }
