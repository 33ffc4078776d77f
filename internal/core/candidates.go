package core

import (
	"sort"

	"cabd/internal/series"
	"cabd/internal/stats"
)

// candidateIndices implements Candidate Estimation (Algorithm 2 line 1):
// a point is a candidate when the robust z-score of its absolute second
// difference ∂ (Equation 4/6) exceeds the threshold — the MAD-based rule
// of Definition 4 read as |∂_i - median(∂)| > z·MAD(∂). This is a global,
// INN-independent analysis of the series. The returned zscores slice is
// parallel to the indices: the strength of each candidate's ∂ deviation,
// which the bootstrap rules reuse to grade level shifts.
//
// The analysis runs on the raw values: the robust z of ∂ is invariant
// under the affine standardization of Equation 2 (both the median offset
// and the MAD scale cancel), so standardizing first buys nothing.
func candidateIndices(s *series.Series, z float64) (idx []int, zscores []float64) {
	d2 := series.SecondDiff(s.Values)
	rz := stats.RobustZ(d2)
	for i, v := range rz {
		if v > z {
			idx = append(idx, i)
		}
	}
	if idx == nil {
		return nil, nil
	}
	// When MAD collapses to zero on mostly-flat data, RobustZ flags every
	// nonzero deviation as +Inf; guard against candidate floods by
	// falling back to the top deviations only.
	if len(idx) > len(rz)/4 {
		idx = topDeviations(d2, len(rz)/4)
	}
	zscores = make([]float64, len(idx))
	for i, ci := range idx {
		zscores[i] = rz[ci]
	}
	return idx, zscores
}

// topDeviations returns the indices of the k largest second differences,
// sorted by index. Ties are broken toward the smaller index so the
// selected set is a deterministic function of the values.
func topDeviations(d2 []float64, k int) []int {
	if k < 1 {
		k = 1
	}
	type iv struct {
		i int
		v float64
	}
	items := make([]iv, len(d2))
	for i, v := range d2 {
		items[i] = iv{i, v}
	}
	// Simple sort is fine at these sizes.
	sort.Slice(items, func(a, b int) bool {
		//cabd:lint-ignore floateq deterministic (value, index) selection order needs exact ties to fall through to the index
		if items[a].v != items[b].v {
			return items[a].v > items[b].v
		}
		return items[a].i < items[b].i
	})
	if k > len(items) {
		k = len(items)
	}
	idx := make([]int, k)
	for i := 0; i < k; i++ {
		idx[i] = items[i].i
	}
	sort.Ints(idx)
	return idx
}
