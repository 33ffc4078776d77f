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

	// XChannelCorr enables the cross-channel correlation feature as a
	// fifth classifier column (Candidate.XCorr). Only the multivariate
	// detector sets it (for d >= 2 channels); the univariate pipeline
	// keeps the 4-feature layout, so its forest RNG consumption — and
	// therefore its detections — stay bit-identical.
	XChannelCorr bool

	// SAXSegments / SAXAlphabet parameterize the correlation score's
	// symbolic representation (Definitions 6-8). Defaults 3 and 3 (a coarse word space keeps common shapes genuinely frequent).
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

	// SeqOracle forces the sequential row-major reference paths the
	// optimized pipeline is differentially tested against: one scoring
	// worker, single-goroutine forest training, per-candidate row-major
	// feature vectors and per-row forest inference. Detections are
	// bit-identical to the default batched/parallel paths — that
	// equivalence is what the determinism suite and the `-exp scale`
	// benchmark enforce — just slower. Off by default.
	SeqOracle bool

	// Obs receives pipeline metrics: stage spans, candidate/query/
	// degradation counters, rank-memo statistics. One recorder may be
	// shared across detectors, batch workers and streaming pushes. Nil
	// (the default) disables instrumentation entirely — the nil path
	// reads no clock and allocates nothing.
	Obs *obs.Recorder

	// Trees is the random-forest size. Default 100.
	Trees int
	// Seed drives every stochastic component (forest bagging, GMM
	// seeding) so runs are reproducible. Default 1.
	Seed int64
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
	if o.SAXAlphabet <= 0 {
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
