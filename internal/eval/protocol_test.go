package eval

import (
	"math"
	"testing"
)

// TestMatchTieHandling pins the greedy nearest-match tie rules: an
// equidistant prediction claims the lower truth index (first found wins a
// strict-distance comparison), and a later prediction can no longer claim
// a used truth even when it is closer.
func TestMatchTieHandling(t *testing.T) {
	cases := []struct {
		name       string
		pred       []int
		truth      []int
		tol        int
		tp, fp, fn int
	}{
		{"equidistant claims lower index", []int{10}, []int{8, 12}, 2, 1, 0, 1},
		{"greedy order blocks closer later pred", []int{9, 10}, []int{10}, 2, 1, 1, 0},
		{"exact hit beats tolerant hit", []int{10}, []int{10, 11}, 2, 1, 0, 1},
		{"two preds two truths interleaved", []int{9, 12}, []int{10, 11}, 2, 2, 0, 0},
		{"zero tolerance demands exactness", []int{9, 12}, []int{10, 11}, 0, 0, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Match(tc.pred, tc.truth, tc.tol)
			if m.TP != tc.tp || m.FP != tc.fp || m.FN != tc.fn {
				t.Errorf("Match(%v, %v, %d) = TP %d FP %d FN %d, want %d/%d/%d",
					tc.pred, tc.truth, tc.tol, m.TP, m.FP, m.FN, tc.tp, tc.fp, tc.fn)
			}
		})
	}
}

// TestStrictMatchF1 pins the strict point-wise F1 of Match at zero
// tolerance on segment-shaped labelings: a hit inside a segment credits
// that one point, not the segment.
func TestStrictMatchF1(t *testing.T) {
	cases := []struct {
		name     string
		pred     []int
		truth    []int
		strictF1 float64
	}{
		{
			// One hit inside a 4-point segment credits 1 of 4.
			name: "partial segment hit",
			pred: []int{21}, truth: []int{20, 21, 22, 23},
			strictF1: 2 * (1.0 / 1) * (1.0 / 4) / (1.0/1 + 1.0/4),
		},
		{
			// A hit on one of two segments credits one of four points.
			name: "one of two segments",
			pred: []int{5}, truth: []int{5, 6, 40, 41},
			strictF1: 2 * 1 * 0.25 / 1.25,
		},
		{
			// A pure false positive scores zero.
			name: "all miss",
			pred: []int{99}, truth: []int{1, 2, 3},
			strictF1: 0,
		},
		{
			// Exact full-segment detection is perfect.
			name: "exact cover",
			pred: []int{7, 8, 9}, truth: []int{7, 8, 9},
			strictF1: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			strict := Match(tc.pred, tc.truth, 0)
			if math.Abs(strict.F1-tc.strictF1) > 1e-12 {
				t.Errorf("strict F1 = %v, want %v", strict.F1, tc.strictF1)
			}
		})
	}
}

// TestAllAnomalyTruth exercises the degenerate labeling where every index
// is ground truth: a single detection leaves strict recall at 1/n.
func TestAllAnomalyTruth(t *testing.T) {
	n := 50
	truth := make([]int, n)
	for i := range truth {
		truth[i] = i
	}
	s := Match([]int{25}, truth, 0)
	if s.TP != 1 || s.FN != n-1 {
		t.Errorf("all-anomaly strict = %+v", s)
	}
	if got := Accuracy([]int{25}, truth, 0); math.Abs(got-1.0/float64(n)) > 1e-12 {
		t.Errorf("all-anomaly accuracy = %v, want %v", got, 1.0/float64(n))
	}
}
