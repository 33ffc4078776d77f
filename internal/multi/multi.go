// Package multi extends CABD to multi-dimensional time series — the
// direction the paper's conclusion singles out as future work ("we plan
// to study how our techniques apply on multi-dimensional times series").
//
// Detection itself is core's (core.Detector.DetectChannelsCtx), which
// runs over one or more channels; this package holds the d-channel
// Series type and a Detector over it. With two or more channels:
//
//   - points embed as (standardized index, standardized value_1, ...,
//     standardized value_d) and the INN is computed over that space with
//     the same per-offset mutual-rank bound and 5% prune;
//   - candidate estimation takes, per point, the strongest per-channel
//     robust z-score of the absolute second difference;
//   - the correlation score reads the SAX words of the channel that
//     flagged the candidate, the variance score the mean per-channel
//     variance, and the classifier gains the cross-channel
//     decorrelation feature;
//   - anomalies flagged in two or more channels merge into the
//     collective subtype.
//
// One channel is the univariate series, bit for bit.
package multi

import (
	"context"

	"cabd/internal/core"
	"cabd/internal/series"
)

// Series is a d-dimensional, equally spaced time series: Dims holds d
// slices of equal length n. Labels, when non-nil, carries per-point
// ground truth shared across dimensions.
type Series struct {
	Name   string
	Dims   [][]float64
	Labels []series.Label
}

// NewSeries wraps dims (which must be non-empty and of equal lengths).
func NewSeries(name string, dims [][]float64) *Series {
	return &Series{Name: name, Dims: dims}
}

// Len returns the number of time steps (0 for an empty series).
func (s *Series) Len() int {
	if len(s.Dims) == 0 {
		return 0
	}
	return len(s.Dims[0])
}

// LabelAt returns the ground-truth label of index i (Normal when
// unlabeled or out of range).
func (s *Series) LabelAt(i int) series.Label {
	if s.Labels == nil || i < 0 || i >= len(s.Labels) {
		return series.Normal
	}
	return s.Labels[i]
}

// AnomalyIndices returns the indices labeled as anomalies.
func (s *Series) AnomalyIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l.IsAnomaly() {
			out = append(out, i)
		}
	}
	return out
}

// Detector runs multivariate CABD. Options are the univariate option set
// and every Strategy is honoured.
type Detector struct {
	core *core.Detector
}

// NewDetector returns a multivariate detector.
func NewDetector(opts core.Options) *Detector {
	return &Detector{core: core.NewDetector(opts)}
}

// Detect runs the unsupervised multivariate pipeline.
func (d *Detector) Detect(s *Series) *core.Result {
	res, _ := d.DetectCtx(context.Background(), s)
	return res
}

// DetectActive runs the pipeline with the CAL active-learning loop.
func (d *Detector) DetectActive(s *Series, o core.Labeler) *core.Result {
	res, _ := d.DetectActiveCtx(context.Background(), s, o)
	return res
}

// DetectCtx is Detect with cancellation: ctx is checked at stage
// boundaries and per candidate inside the scoring worker pool, and a
// cancelled context returns ctx.Err() promptly.
func (d *Detector) DetectCtx(ctx context.Context, s *Series) (*core.Result, error) {
	return d.core.DetectChannelsCtx(ctx, s.Dims, nil)
}

// DetectActiveCtx is DetectActive with cancellation.
func (d *Detector) DetectActiveCtx(ctx context.Context, s *Series, o core.Labeler) (*core.Result, error) {
	return d.core.DetectChannelsCtx(ctx, s.Dims, o)
}
