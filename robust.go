package cabd

import (
	"context"
	"fmt"
	"runtime/debug"

	"cabd/internal/core"
	"cabd/internal/obs"
	"cabd/internal/sanitize"
)

// SanitizePolicy selects how the entry points treat NaN, ±Inf and
// out-of-range values: repair by interpolation (the default), drop the
// bad points, or reject the series with an error. Set it on
// Options.Sanitize.
type SanitizePolicy = sanitize.Policy

// Sanitization policies.
const (
	SanitizeInterpolate = sanitize.Interpolate
	SanitizeDrop        = sanitize.Drop
	SanitizeReject      = sanitize.Reject
)

// ParseSanitizePolicy maps a flag string ("interpolate", "drop",
// "reject") to a SanitizePolicy.
func ParseSanitizePolicy(s string) (SanitizePolicy, error) { return sanitize.ParsePolicy(s) }

// SanitizeReport describes what input sanitization found and repaired;
// every detection result carries one.
type SanitizeReport = sanitize.Report

// Sanitization errors, returned by the Ctx entry points. Match with
// errors.Is.
var (
	// ErrEmpty reports a nil or zero-length series.
	ErrEmpty = sanitize.ErrEmpty
	// ErrTooShort reports a series below the detector's 4-point floor.
	ErrTooShort = sanitize.ErrTooShort
	// ErrBadValues reports NaN/Inf/out-of-range input under SanitizeReject.
	ErrBadValues = sanitize.ErrBadValues
	// ErrAllBad reports a series with no finite values at all.
	ErrAllBad = sanitize.ErrAllBad
	// ErrRagged reports multivariate dimensions of unequal length.
	ErrRagged = sanitize.ErrRagged
)

// PanicError wraps a panic recovered inside the detection pipeline. The
// facade entry points never propagate panics: a crashing series surfaces
// as a *PanicError and — in batch runs — fails only that series.
type PanicError struct {
	// Series is the batch position of the failing series, or -1 when
	// the panic happened outside a batch run.
	Series int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	if e.Series >= 0 {
		return fmt.Sprintf("cabd: panic detecting series %d: %v", e.Series, e.Value)
	}
	return fmt.Sprintf("cabd: panic during detection: %v", e.Value)
}

// safeRun isolates a pipeline invocation: a panic is recovered and
// surfaced as a *PanicError instead of crashing the process.
func safeRun(f func() (*core.Result, error)) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = &PanicError{Series: -1, Value: p, Stack: debug.Stack()}
		}
	}()
	return f()
}

// sanitizeConfig derives the sanitize configuration from the resolved
// detector options.
func sanitizeConfig(opts Options) sanitize.Config {
	return sanitize.Config{Policy: opts.Sanitize}
}

// remap translates detection indices back to the caller's original
// layout when sanitization compacted the series (SanitizeDrop).
func remap(res *Result, index []int) {
	if index == nil {
		return
	}
	for i := range res.Anomalies {
		res.Anomalies[i].Index = index[res.Anomalies[i].Index]
	}
	for i := range res.ChangePoints {
		res.ChangePoints[i].Index = index[res.ChangePoints[i].Index]
	}
}

// DetectCtx is Detect with input sanitization surfaced and cancellation:
// the context is checked at every pipeline stage boundary (candidate
// estimation, INN scoring, every classifier training pass), so a
// cancelled or expired context returns ctx.Err() promptly. A context
// deadline additionally arms graceful degradation — when the measured
// scoring cost would overrun the remaining budget, the detector falls
// back to the cheaper FixedKNN neighborhood and records the downgrade on
// the Result.
//
// On error the returned Result is non-nil but empty except for its
// SanitizeReport, so callers can still log what the input looked like.
func (d *Detector) DetectCtx(ctx context.Context, values []float64) (*Result, error) {
	return detect(ctx, d.inner, [][]float64{values}, nil)
}

// DetectInteractiveCtx is DetectInteractive with sanitization and
// cancellation; the context is also checked between active-learning
// rounds. Under SanitizeDrop the labeler still receives indices in the
// caller's original layout.
func (d *Detector) DetectInteractiveCtx(ctx context.Context, values []float64, label func(i int) Label) (*Result, error) {
	return detect(ctx, d.inner, [][]float64{values}, label)
}

// detect is the one sanitizing entry point behind every facade detect
// method: it sanitizes chans (one channel for a univariate series),
// runs the pipeline panic-isolated, and maps the detections — and, under
// SanitizeDrop, the labeler's queries — back to the caller's layout.
func detect(ctx context.Context, inner *core.Detector, chans [][]float64, label func(i int) Label) (*Result, error) {
	opts := inner.Options()
	t := opts.Obs.NewTrace()
	var clean [][]float64
	var index []int
	var rep *SanitizeReport
	var sanErr error
	t.Do(obs.StageSanitize, func() {
		clean, index, rep, sanErr = sanitize.Multi(chans, sanitizeConfig(opts))
	})
	if sanErr != nil {
		return &Result{Sanitize: rep, Stages: t.Timings()}, sanErr
	}
	var o core.Labeler
	if label != nil {
		o = labelerFunc(func(i int) Label {
			if index != nil {
				i = index[i]
			}
			return label(i)
		})
	}
	cres, err := safeRun(func() (*core.Result, error) {
		return inner.DetectChannelsCtx(ctx, clean, o)
	})
	if err != nil {
		if _, ok := err.(*PanicError); ok {
			opts.Obs.Add(obs.CounterPanicsContained, 1)
		}
		return &Result{Sanitize: rep, Stages: t.Timings()}, err
	}
	out := convert(cres)
	out.Stages.Merge(t.Timings())
	out.Sanitize = rep
	remap(out, index)
	return out, nil
}
