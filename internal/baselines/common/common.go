// Package common provides the shared plumbing of the baseline detectors
// compared against CABD in Section V-D: sliding-window embeddings,
// score-to-detection thresholding and the Detector interface the
// experiment harness drives.
package common

import (
	"sort"

	"cabd/internal/series"
	"cabd/internal/stats"
)

// Detector is the minimal contract every baseline satisfies: map a series
// to the indices it flags as anomalous.
type Detector interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Detect returns the flagged indices, sorted ascending.
	Detect(s *series.Series) []int
}

// Windows embeds xs into overlapping windows of length w with stride 1:
// row i covers xs[i : i+w]. Returns nil when w is out of range.
func Windows(xs []float64, w int) [][]float64 {
	n := len(xs)
	if w <= 0 || w > n {
		return nil
	}
	out := make([][]float64, n-w+1)
	for i := range out {
		out[i] = xs[i : i+w]
	}
	return out
}

// Threshold converts per-point anomaly scores (higher = more anomalous)
// into detections. With contamination > 0 the top contamination fraction
// is flagged (the "percentage of abnormal data" parameter of SPOT/DSPOT/
// DONUT the paper calls dataset specific); otherwise a robust z-test at 6
// MADs (~4 sigma under normality) flags the outliers of the score
// distribution itself.
func Threshold(scores []float64, contamination float64) []int {
	n := len(scores)
	if n == 0 {
		return nil
	}
	var out []int
	if contamination > 0 {
		k := int(contamination * float64(n))
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		out = append(out, idx[:k]...)
		sort.Ints(out)
		return out
	}
	rz := stats.RobustZ(scores)
	med := stats.Median(scores)
	for i, z := range rz {
		if z > 6 && scores[i] > med {
			out = append(out, i)
		}
	}
	return out
}

// SpreadWindowScores assigns window scores back to point scores: each
// point receives the maximum score among the windows containing it. w is
// the window length used to build the scores.
func SpreadWindowScores(winScores []float64, n, w int) []float64 {
	out := make([]float64, n)
	for wi, s := range winScores {
		for j := wi; j < wi+w && j < n; j++ {
			if s > out[j] {
				out[j] = s
			}
		}
	}
	return out
}

// LastPointWindowScores assigns each window score to the window's last
// point (streaming detectors score the newest observation). Points before
// the first complete window score 0.
func LastPointWindowScores(winScores []float64, n, w int) []float64 {
	out := make([]float64, n)
	for wi, s := range winScores {
		p := wi + w - 1
		if p < n {
			out[p] = s
		}
	}
	return out
}
