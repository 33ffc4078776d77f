package core

import (
	"cabd/internal/obs"
	"cabd/internal/series"
)

// Class is the 3-way classification space of the Score Evaluation step:
// {abnormal point, normal point, change point}.
type Class int

// Classifier output classes. Single and collective anomalies share
// ClassAnomaly; the subtype is recovered from the INN size.
const (
	ClassNormal Class = iota
	ClassAnomaly
	ClassChange
)

// NumClasses is the classifier label-space size.
const NumClasses = 3

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNormal:
		return "normal"
	case ClassAnomaly:
		return "anomaly"
	case ClassChange:
		return "change"
	default:
		return "unknown"
	}
}

// classOfLabel maps a ground-truth label to the classifier space.
func classOfLabel(l series.Label) Class {
	switch {
	case l.IsAnomaly():
		return ClassAnomaly
	case l == series.ChangePoint:
		return ClassChange
	default:
		return ClassNormal
	}
}

// Candidate is one point selected by candidate estimation, with its
// neighborhood and score metric β (Algorithm 3).
type Candidate struct {
	Index int   // position in the series
	INN   []int // neighborhood member indices (sorted, excluding Index)
	// LeftExtent / RightExtent are the per-side spans of the INN hull
	// around Index. A change point's neighborhood grows into the new
	// segment only, so one extent is near zero — the bootstrap rules
	// use this asymmetry to tell level shifts from plain normal points.
	LeftExtent  int
	RightExtent int

	// The three INN scores (Definitions 5, 8, 9).
	Magnitude   float64
	Correlation float64
	Variance    float64
	// Asymmetry is |RightExtent-LeftExtent| / (RightExtent+LeftExtent)
	// in [0,1] (0 for an empty neighborhood). It exposes the
	// one-sidedness of the INN hull to the classifier: a change point's
	// neighborhood grows into the new segment only. See DESIGN.md —
	// this is the reproduction's one extension beyond the paper's three
	// scores, needed because the contiguous-INN geometry folds the
	// asymmetry signal out of the magnitude score.
	Asymmetry float64

	// XCorr is the cross-channel decorrelation score of the multivariate
	// extension: (1 - mean pairwise channel correlation over the local
	// window)/2, in [0,1]. A fault in one channel of a correlated group
	// breaks the local co-movement, so high XCorr is anomaly evidence.
	// Zero (and excluded from the feature vector) on a single channel.
	XCorr float64

	// Channel is the channel whose second difference flagged the
	// candidate; the correlation score reads that channel's SAX words.
	// Always 0 for a univariate series.
	Channel int

	// SecondDiffZ is the robust z-score of the candidate's absolute
	// second difference — how strongly the candidate-estimation step
	// flagged it. Level shifts and spikes score far above noise blips.
	SecondDiffZ float64

	// Classification state.
	Class      Class
	Confidence float64 // confidence weight CW = max class probability
	Queried    bool    // answered by the oracle during active learning
}

// features returns the width-wide classifier feature vector under the
// ablation switches of opts. The asymmetry feature always rides along;
// the Fig. 13 ablation toggles only the paper's three scores.
func (c *Candidate) features(o Options, width int) []float64 {
	f := make([]float64, width)
	if !o.DisableMagnitude {
		f[0] = c.Magnitude
	}
	if !o.DisableCorrelation {
		f[1] = c.Correlation
	}
	if !o.DisableVariance {
		f[2] = c.Variance
	}
	f[3] = c.Asymmetry
	if width > baseFeatures {
		f[4] = c.XCorr
	}
	return f
}

// Detection is one reported anomaly or change point.
type Detection struct {
	Index      int          // series position
	Class      Class        // ClassAnomaly or ClassChange
	Subtype    series.Label // SingleAnomaly / CollectiveAnomaly / ChangePoint
	Confidence float64      // classifier confidence weight
}

// RoundSnapshot captures the detector state after one active-learning
// round (Table II traces).
type RoundSnapshot struct {
	Round         int     // 1-based AL round (0 = unsupervised bootstrap)
	Queries       int     // cumulative oracle queries
	MinConfidence float64 // min CW across candidates
	Anomalies     []int   // anomaly indices predicted at this round
	ChangePoints  []int   // change-point indices predicted at this round
}

// Result is the output of a detection run.
type Result struct {
	// Anomalies and ChangePoints are the final detections, sorted by
	// index.
	Anomalies    []Detection
	ChangePoints []Detection
	// Candidates is the scored candidate set (diagnostics, Fig. 3).
	Candidates []Candidate
	// Queries is the number of oracle interactions (0 when
	// unsupervised).
	Queries int
	// Rounds traces each active-learning round.
	Rounds []RoundSnapshot

	// Stages is the per-stage wall time of this run, populated only when
	// Options.Obs carries a recorder (the nil-recorder path skips all
	// clock reads).
	Stages obs.StageTimings

	// Strategy is the neighborhood strategy actually used — it differs
	// from the configured one when the run degraded.
	Strategy Strategy
	// Degraded is set when the detector fell back to FixedKNN scoring
	// because the candidate count exceeded Options.DegradeCandidates or
	// the context deadline left too little headroom for full INN
	// computation. DegradeReason says which.
	Degraded      bool
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
