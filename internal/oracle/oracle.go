// Package oracle simulates the human annotator of the active-learning loop
// (Section IV). Each query is answered from the ground-truth labels of the
// series, exactly like the paper's experiments; the oracle counts its
// interactions so the benefit function (Equation 14) and the per-round
// traces of Table II can be computed.
package oracle

import "cabd/internal/series"

// Oracle answers point-label queries from ground truth.
type Oracle struct {
	s       *series.Series
	queries []int
}

// New wraps a labeled series. The series must carry ground-truth Labels;
// an unlabeled series answers Normal for every query.
func New(s *series.Series) *Oracle {
	return &Oracle{s: s}
}

// Label returns the ground-truth label of index i and records the query.
func (o *Oracle) Label(i int) series.Label {
	o.queries = append(o.queries, i)
	return o.s.LabelAt(i)
}

// Queries returns the number of labels requested so far.
func (o *Oracle) Queries() int { return len(o.queries) }

// QueriedIndices returns the queried indices in request order.
func (o *Oracle) QueriedIndices() []int {
	return append([]int(nil), o.queries...)
}
