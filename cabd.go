// Package cabd is a Go implementation of CABD — the Comprehensive Anomaly
// and change point (Break point) Detection algorithm for time series of
// "User-driven Error Detection for Time Series with Events" (Le & Papotti,
// ICDE 2020).
//
// CABD distinguishes data errors (single and collective anomalies) from
// notable events (change points) in a single pass, using the
// non-parametric Inverse Nearest Neighbor (INN) concept and a
// probabilistic classifier. When an interactive labeler is available, an
// uncertainty-sampling active-learning loop raises detection quality to a
// user-chosen confidence with a handful of annotations — typically 2-5
// labels per series.
//
// Quick start:
//
//	det := cabd.New(cabd.Options{})
//	res := det.Detect(values)
//	for _, a := range res.Anomalies { ... }
//
// Interactive detection plugs any labeling function — a UI prompt, a rule
// system, or recorded ground truth:
//
//	res := det.DetectInteractive(values, func(i int) cabd.Label {
//		return askUser(i)
//	})
package cabd

import (
	"context"

	"cabd/internal/core"
	"cabd/internal/series"
)

// Label classifies a single point of a series.
type Label uint8

// Point labels, in the vocabulary of the paper: errors are single or
// collective anomalies; change points are events to preserve.
const (
	Normal            = Label(series.Normal)
	SingleAnomaly     = Label(series.SingleAnomaly)
	CollectiveAnomaly = Label(series.CollectiveAnomaly)
	ChangePoint       = Label(series.ChangePoint)
)

// String implements fmt.Stringer.
func (l Label) String() string { return series.Label(l).String() }

// IsAnomaly reports whether the label denotes a data error.
func (l Label) IsAnomaly() bool { return series.Label(l).IsAnomaly() }

// Strategy selects the neighborhood computation.
type Strategy = core.Strategy

// Neighborhood strategies. BinaryINN (the default) is the paper's
// optimized algorithm; LinearINN is the unoptimized scan; FixedKNN is the
// degraded k-nearest-neighbor ablation.
const (
	BinaryINN    = core.BinaryINN
	LinearINN    = core.LinearINN
	MutualSetINN = core.MutualSetINN
	FixedKNN     = core.FixedKNN
)

// Options configures a Detector; zero-value fields take the paper's
// defaults (5% INN prune, confidence γ = 0.8, 100-tree random forest).
type Options = core.Options

// Detection is one reported anomaly or change point.
type Detection struct {
	// Index is the position in the input slice.
	Index int
	// Subtype is SingleAnomaly, CollectiveAnomaly or ChangePoint.
	Subtype Label
	// Confidence is the classifier's confidence weight in [0, 1].
	Confidence float64
}

// Result is the outcome of one detection run.
type Result struct {
	// Anomalies are the detected data errors, sorted by index.
	Anomalies []Detection
	// ChangePoints are the detected events, sorted by index.
	ChangePoints []Detection
	// Queries is the number of labels requested from the labeler
	// (0 for unsupervised runs).
	Queries int

	// Sanitize reports what input sanitization found and repaired
	// (NaN/Inf counts, synthesized or dropped points, constant-series
	// and too-short flags). Nil only for results built outside the
	// sanitizing entry points.
	Sanitize *SanitizeReport
	// Stages is the per-stage wall time of this run, populated only when
	// Options.Obs carries a recorder.
	Stages StageTimings
	// Strategy is the neighborhood strategy actually used; it differs
	// from the configured one when the run degraded.
	Strategy Strategy
	// Degraded is set when the detector fell back to FixedKNN scoring —
	// either the candidate count exceeded Options.DegradeCandidates or
	// a context deadline left too little headroom for full INN
	// computation. DegradeReason says which.
	Degraded bool
	// DegradeReason is a human-readable downgrade explanation.
	DegradeReason string
}

// AnomalyIndices returns the detected anomaly positions, sorted.
func (r *Result) AnomalyIndices() []int {
	out := make([]int, len(r.Anomalies))
	for i, d := range r.Anomalies {
		out[i] = d.Index
	}
	return out
}

// ChangePointIndices returns the detected change-point positions, sorted.
func (r *Result) ChangePointIndices() []int {
	out := make([]int, len(r.ChangePoints))
	for i, d := range r.ChangePoints {
		out[i] = d.Index
	}
	return out
}

// Detector detects anomalies and change points in univariate, equally
// spaced time series. It is stateless across series and safe to reuse.
type Detector struct {
	inner *core.Detector
}

// New returns a Detector with the given options.
func New(opts Options) *Detector {
	return &Detector{inner: core.NewDetector(opts)}
}

// Detect runs the unsupervised pipeline over values: candidate estimation
// on the second difference, INN score computation, and hypothesis-
// bootstrapped classification. No labels are requested.
//
// Input is sanitized first under Options.Sanitize (NaN/±Inf repair by
// interpolation, by default); hostile input that cannot be detected on —
// empty, too short, all-bad — yields an empty Result whose Sanitize
// report says why. Use DetectCtx for the error-returning form.
func (d *Detector) Detect(values []float64) *Result {
	res, _ := d.DetectCtx(context.Background(), values)
	return res
}

// DetectInteractive runs the full active-learning pipeline: after the
// unsupervised bootstrap, the most uncertain candidate points are passed
// to label until every detection reaches the configured confidence or the
// query budget is exhausted. label receives the index of the point to
// annotate and returns its class. Input is sanitized as in Detect.
func (d *Detector) DetectInteractive(values []float64, label func(i int) Label) *Result {
	res, _ := d.DetectInteractiveCtx(context.Background(), values, label)
	return res
}

type labelerFunc func(i int) Label

func (f labelerFunc) Label(i int) series.Label { return series.Label(f(i)) }

func convert(res *core.Result) *Result {
	out := &Result{
		Queries:       res.Queries,
		Stages:        res.Stages,
		Strategy:      res.Strategy,
		Degraded:      res.Degraded,
		DegradeReason: res.DegradeReason,
	}
	for _, det := range res.Anomalies {
		out.Anomalies = append(out.Anomalies, Detection{
			Index: det.Index, Subtype: Label(det.Subtype),
			Confidence: det.Confidence,
		})
	}
	for _, det := range res.ChangePoints {
		out.ChangePoints = append(out.ChangePoints, Detection{
			Index: det.Index, Subtype: Label(det.Subtype),
			Confidence: det.Confidence,
		})
	}
	return out
}
