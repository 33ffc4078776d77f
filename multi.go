package cabd

import (
	"context"

	"cabd/internal/core"
)

// MultiDetector detects anomalies and change points in multi-dimensional
// time series — d synchronized value streams over the same clock (e.g.
// several sensors of one machine). The INN neighborhood is computed in
// the joint (time, value_1..value_d) space; everything else matches the
// univariate Detector.
type MultiDetector struct {
	inner *core.Detector
}

// NewMulti returns a multivariate detector with the given options.
func NewMulti(opts Options) *MultiDetector {
	return &MultiDetector{inner: core.NewDetector(opts)}
}

// Detect runs the unsupervised pipeline over dims: a slice of d value
// series, all the same length. Input is sanitized first under
// Options.Sanitize — under SanitizeDrop a bad value in any dimension
// removes that whole time step so the dimensions stay aligned. Hostile
// input that cannot be detected on yields an empty Result whose Sanitize
// report says why; use DetectCtx for the error-returning form.
func (d *MultiDetector) Detect(dims [][]float64) *Result {
	res, _ := d.DetectCtx(context.Background(), dims)
	return res
}

// DetectInteractive runs the active-learning pipeline; label receives the
// time index of each queried point and returns its class.
func (d *MultiDetector) DetectInteractive(dims [][]float64, label func(i int) Label) *Result {
	res, _ := d.DetectInteractiveCtx(context.Background(), dims, label)
	return res
}

// DetectCtx is Detect with sanitization surfaced and cancellation: the
// context is checked at stage boundaries and inside the neighborhood
// loop, and a cancelled context returns ctx.Err() promptly. Panics in
// the pipeline surface as *PanicError instead of crashing the process.
func (d *MultiDetector) DetectCtx(ctx context.Context, dims [][]float64) (*Result, error) {
	return detect(ctx, d.inner, dims, nil)
}

// DetectInteractiveCtx is DetectInteractive with sanitization and
// cancellation. Under SanitizeDrop the labeler still receives time
// indices in the caller's original layout.
func (d *MultiDetector) DetectInteractiveCtx(ctx context.Context, dims [][]float64, label func(i int) Label) (*Result, error) {
	return detect(ctx, d.inner, dims, label)
}

// DetectBatch runs unsupervised multivariate detection over many
// independent series in parallel, with the same per-series sanitization
// and panic isolation as Detector.DetectBatch.
func (d *MultiDetector) DetectBatch(sets [][][]float64) []*Result {
	out, _ := d.DetectBatchCtx(context.Background(), sets)
	return out
}

// DetectBatchCtx is DetectBatch with cancellation and per-series errors;
// the slices align with the input and a failing series never takes down
// the worker pool. Every position is filled — results[i] is always
// non-nil and a crashed series carries its *PanicError.
func (d *MultiDetector) DetectBatchCtx(ctx context.Context, sets [][][]float64) (results []*Result, errs []error) {
	return batchDetect(ctx, d.inner.Options().Obs, len(sets),
		func(ctx context.Context, i int) (*Result, error) {
			return d.DetectCtx(ctx, sets[i])
		})
}
