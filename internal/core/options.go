// Package core implements CABD, the Comprehensive Anomaly and change
// point/Break point Detection algorithm of the paper (Section IV):
// candidate estimation from the MAD of the absolute second difference,
// INN-based score computation (Magnitude, Correlation, Variance),
// probabilistic classification bootstrapped by the unsupervised
// decision rules of Figure 3, and the CAL uncertainty-sampling
// active-learning loop terminated by a user-chosen minimum confidence.
package core

import (
	"cabd/internal/obs"
	"cabd/internal/sanitize"
)

// Strategy selects the neighborhood computation (Section IV
// "Optimizations" and the Figure 12 ablation).
type Strategy int

const (
	// BinaryINN is the optimized default: Algorithm 5's per-side binary
	// search with the 5% range prune.
	BinaryINN Strategy = iota
	// LinearINN is the unoptimized linear per-side scan (Algorithm 1's
	// cost profile) — the "CABD without optimization" curve of Fig. 11.
	LinearINN
	// MutualSetINN is the unconstrained (non-contiguous) mutual
	// neighborhood.
	MutualSetINN
	// FixedKNN replaces INN with a fixed k-nearest-neighbor set — the
	// CABD-KNN ablation of Fig. 12.
	FixedKNN
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case BinaryINN:
		return "binary-inn"
	case LinearINN:
		return "linear-inn"
	case MutualSetINN:
		return "mutualset-inn"
	case FixedKNN:
		return "fixed-knn"
	default:
		return "unknown"
	}
}

// Options configures a Detector. The zero value selects the paper's
// defaults via defaults().
type Options struct {
	// CandidateZ is the robust z-score threshold on the second
	// difference for candidate estimation (Definitions 3-4). Default 3.
	CandidateZ float64
	// RangeFrac is the INN search-range prune as a fraction of the
	// dataset (Section IV Optimizations). Default 0.05.
	RangeFrac float64
	// Strategy selects the neighborhood computation. Default BinaryINN.
	Strategy Strategy
	// KNNK is the fixed k for the FixedKNN ablation. Default 10.
	KNNK int

	// Score ablation switches (Fig. 13). All default to enabled; a
	// disabled score contributes a constant 0 feature.
	DisableMagnitude   bool
	DisableCorrelation bool
	DisableVariance    bool

	// SAXSegments / SAXAlphabet parameterize the correlation score's
	// symbolic representation (Definitions 6-8). Defaults 3 and 3 (a
	// coarse word space keeps common shapes genuinely frequent). An
	// alphabet below 2 has no breakpoints — every word would be all
	// 'a' — so it resolves to the default like 0 does.
	SAXSegments int
	SAXAlphabet int

	// Confidence is the user-defined minimum confidence γ terminating
	// active learning (Algorithm 2 line 5). Default 0.8.
	Confidence float64
	// MaxQueries caps oracle interactions per series. Default:
	// max(50, 2% of the series length) — the paper reports exposing
	// about 2% of the dataset to the user on average.
	MaxQueries int
	// LabelWeight is how many times each oracle-provided label is
	// replicated in the training set relative to bootstrap
	// pseudo-labels, letting few true labels steer the classifier.
	// Default 5.
	LabelWeight int

	// Sanitize selects how the facade entry points treat NaN, ±Inf and
	// out-of-range values before detection: repair by interpolation
	// (default), drop the bad points, or reject the series with an
	// error. Internal pipeline stages always receive sanitized data.
	Sanitize sanitize.Policy

	// DegradeCandidates bounds the candidate count before the detector
	// falls back from the configured INN strategy to the cheaper
	// FixedKNN neighborhood (graceful degradation under candidate
	// explosion — e.g. MAD collapse on hostile input). The downgrade is
	// recorded on the Result. Default 4096; negative disables.
	DegradeCandidates int

	// Obs receives pipeline metrics: stage spans and candidate, query
	// and degradation counters. One recorder may be shared across
	// detectors, batch workers and streaming pushes. Nil (the default)
	// disables instrumentation entirely — the nil path reads no clock
	// and allocates nothing.
	Obs *obs.Recorder

	// Trees is the random-forest size. Default 100.
	Trees int
	// Seed drives every stochastic component (forest bagging, GMM
	// seeding) so runs are reproducible. Default 1.
	Seed int64

	// classifyRows replaces classify's forest when set. Only tests set
	// it, to prove the optimized path against a row-major reference. A
	// pointer, not a func value, so Options stays comparable.
	classifyRows *rowClassifier
}

func (o Options) defaults() Options {
	if o.CandidateZ <= 0 {
		o.CandidateZ = 3
	}
	if o.RangeFrac <= 0 {
		o.RangeFrac = 0.05
	}
	if o.KNNK <= 0 {
		o.KNNK = 10
	}
	if o.SAXSegments <= 0 {
		o.SAXSegments = 3
	}
	if o.SAXAlphabet < 2 {
		o.SAXAlphabet = 3
	}
	if o.Confidence <= 0 {
		o.Confidence = 0.8
	}
	if o.LabelWeight <= 0 {
		o.LabelWeight = 5
	}
	if o.DegradeCandidates == 0 {
		o.DegradeCandidates = 4096
	}
	if o.Trees <= 0 {
		o.Trees = 100
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}
