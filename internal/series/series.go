// Package series defines the time-series model of the paper (Definition 1):
// equally spaced observations, optionally carrying ground-truth labels for
// anomalies and change points. It provides standardization (Equation 2),
// the 2-D point embedding over which Euclidean distances are computed
// (Definition 2, matching Example 2 of the paper), and the first/second
// difference operators of the candidate-estimation step (Definitions 3-4).
package series

import (
	"fmt"
	"math"

	"cabd/internal/stats"
)

// Label classifies a single data point of a series.
type Label uint8

// Point labels. Normal is the zero value so an unlabeled series is all
// normal. SingleAnomaly and CollectiveAnomaly are both errors in the
// paper's sense; ChangePoint is a notable event that must be preserved.
const (
	Normal Label = iota
	SingleAnomaly
	CollectiveAnomaly
	ChangePoint
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case Normal:
		return "normal"
	case SingleAnomaly:
		return "single-anomaly"
	case CollectiveAnomaly:
		return "collective-anomaly"
	case ChangePoint:
		return "change-point"
	default:
		return fmt.Sprintf("label(%d)", uint8(l))
	}
}

// IsAnomaly reports whether the label denotes a data error.
func (l Label) IsAnomaly() bool { return l == SingleAnomaly || l == CollectiveAnomaly }

// Series is a univariate, equally spaced time series. Values holds the raw
// observations. Labels, when non-nil, has the same length and records the
// ground truth used by the simulated oracle and the evaluation metrics.
// Truth, when non-nil, carries the clean values before error injection and
// drives the RMS repair experiments.
type Series struct {
	Name   string
	Values []float64
	Labels []Label
	Truth  []float64
}

// New returns an unlabeled series over values. The slice is used directly,
// not copied.
func New(name string, values []float64) *Series {
	return &Series{Name: name, Values: values}
}

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Values) }

// EnsureLabels allocates the label slice if missing and returns it.
func (s *Series) EnsureLabels() []Label {
	if s.Labels == nil {
		s.Labels = make([]Label, len(s.Values))
	}
	return s.Labels
}

// LabelAt returns the ground-truth label of index i, Normal when the
// series is unlabeled or i is out of range.
func (s *Series) LabelAt(i int) Label {
	if s.Labels == nil || i < 0 || i >= len(s.Labels) {
		return Normal
	}
	return s.Labels[i]
}

// AnomalyIndices returns the indices labeled as single or collective
// anomalies, in order.
func (s *Series) AnomalyIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l.IsAnomaly() {
			out = append(out, i)
		}
	}
	return out
}

// ChangePointIndices returns the indices labeled as change points, in order.
func (s *Series) ChangePointIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l == ChangePoint {
			out = append(out, i)
		}
	}
	return out
}

// Points embeds the series into 2-D Euclidean space as
// (standardized index, standardized value) pairs — the space over which
// INN distances are computed. Standardizing both coordinates lets the
// index and value dimensions mix, as Section II prescribes.
func (s *Series) Points() [][2]float64 {
	n := len(s.Values)
	pts := make([][2]float64, n)
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	si := stats.Standardize(idx)
	sv := stats.Standardize(s.Values)
	for i := 0; i < n; i++ {
		pts[i] = [2]float64{si[i], sv[i]}
	}
	return pts
}

// FirstDiff returns the absolute first difference |x_i - x_{i-1}|
// (Definition 5 numbering in the paper text; Equation 5). Element 0 is 0.
func FirstDiff(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i := 1; i < len(xs); i++ {
		out[i] = math.Abs(xs[i] - xs[i-1])
	}
	return out
}

// SecondDiff returns the absolute second difference |Δx_i - Δx_{i-1}|
// (Equation 4), the paper's per-point "anomaly score" ∂ (Equation 6) used
// for candidate estimation. Elements 0 and 1 are 0.
func SecondDiff(xs []float64) []float64 {
	d := FirstDiff(xs)
	out := make([]float64, len(xs))
	for i := 2; i < len(xs); i++ {
		out[i] = math.Abs(d[i] - d[i-1])
	}
	return out
}
