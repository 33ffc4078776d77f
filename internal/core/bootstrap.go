package core

import (
	"math/rand"

	"cabd/internal/ml/gmm"
	"cabd/internal/stats"
)

// bootstrapLabels builds the initial (hypothesis-based) training labels
// for the candidates without any user input (Section IV, "Score
// Evaluation"). Each candidate is labeled by the conjunction of the
// three decision rules of Figure 3 (see ruleClass), with thresholds
// derived from the candidate set — its score medians and a
// second-difference strength gate:
//
//  1. abnormal points have magnitude score below ~5% (single anomalies
//     have MS = 0);
//  2. abnormal points have a low correlation score (their pattern is
//     rare);
//  3. abnormal points have a high variance score (removing their pattern
//     shrinks the local standard deviation).
//
// Change points and plain normal points both fail rule 3; they are told
// apart by pattern rarity (a level shift's boundary shape is rare) and
// neighborhood size. The paper derives the labels from a Gaussian
// Mixture clustering of the score space instead; here the mixture runs
// only in ClusterScores (Figure 3). The rules consume no randomness.
func bootstrapLabels(cands []Candidate) []Class {
	labels := make([]Class, len(cands))
	if len(cands) == 0 {
		return labels
	}
	med := medians(cands)
	// The change rule grades level shifts against the strength of the
	// candidate population: a genuine shift's second difference towers
	// over the noise blips that share its one-sided hull shape.
	med.zHigh = strongZ(cands)
	for i := range cands {
		labels[i] = ruleClass(&cands[i], med)
	}
	return labels
}

// strongZ returns three times the 10th percentile of the candidates'
// second-difference z-scores (at least 6 — twice the candidate
// threshold). Noise blips cluster just above the candidate threshold and
// anchor the low quantile even when most candidates are genuinely
// abnormal; genuine shifts and spikes sit an order of magnitude higher.
func strongZ(cands []Candidate) float64 {
	zs := make([]float64, len(cands))
	for i := range cands {
		zs[i] = cands[i].SecondDiffZ
	}
	z := 3 * stats.Quantile(zs, 0.10)
	if z < 6 {
		z = 6
	}
	return z
}

// ClusterScores fits the 4-component Gaussian Mixture over the candidate
// score vectors (the unsupervised clustering the paper derives its
// thresholds from; Figure 3) and returns the per-candidate cluster
// assignment alongside the cluster means in (MS, CS, VS) order.
func ClusterScores(cands []Candidate, opts Options, rng *rand.Rand) (assign []int, means [][]float64) {
	if len(cands) == 0 {
		return nil, nil
	}
	feats := make([][]float64, len(cands))
	for i := range cands {
		feats[i] = cands[i].features(opts.defaults())
	}
	model := gmm.Fit(feats, gmm.Config{K: 4, Restarts: 2}, rng)
	if model == nil {
		return nil, nil
	}
	assign = make([]int, len(cands))
	for i, f := range feats {
		assign[i] = model.Assign(f)
	}
	return assign, model.Means
}

// scoreMedians holds the per-score medians over the candidate set, the
// data-derived thresholds the decision rules compare against.
type scoreMedians struct {
	ms, cs, vs float64
	zHigh      float64 // strong second-difference threshold for level shifts
}

func medians(cands []Candidate) scoreMedians {
	ms := make([]float64, len(cands))
	cs := make([]float64, len(cands))
	vs := make([]float64, len(cands))
	for i := range cands {
		ms[i] = cands[i].Magnitude
		cs[i] = cands[i].Correlation
		vs[i] = cands[i].Variance
	}
	return scoreMedians{
		ms: stats.Median(ms),
		cs: stats.Median(cs),
		vs: stats.Median(vs),
	}
}

// ruleClass applies the three hypothesis rules of Section IV as a
// conjunction: an abnormal point has magnitude below the paper's 5% bound
// (rule 1), a correlation score below the population median — its pattern
// is rare (rule 2) — and a variance score high enough that removing its
// pattern shrinks the local standard deviation by at least 25% (rule 3).
// Non-anomalous candidates whose neighborhood is strongly one-sided are
// change points: a level shift's INN grows into the new segment only.
func ruleClass(c *Candidate, med scoreMedians) Class {
	const msBound = 0.05
	const vsBound = 0.25
	// Rule 1-3 conjunction, gated on a strong second difference: a true
	// error deviates sharply from its neighbors by construction, while
	// seasonal turning points pass the variance test with z barely above
	// the candidate threshold.
	if c.Variance >= vsBound && c.Magnitude < msBound &&
		c.Correlation <= med.cs && c.SecondDiffZ >= med.zHigh {
		return ClassAnomaly
	}
	lo, hi := c.LeftExtent, c.RightExtent
	if lo > hi {
		lo, hi = hi, lo
	}
	if c.Variance < vsBound && hi >= 3 && lo*4 <= hi && c.SecondDiffZ >= med.zHigh {
		return ClassChange
	}
	return ClassNormal
}
