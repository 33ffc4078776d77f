// Package sanitize validates and repairs raw time-series input before it
// reaches the detection pipeline. The paper's evaluation assumes clean,
// equally spaced, NaN-free series; real deployments (the IoT water-tank
// motivation of Section I) feed detectors missing values, flatlined
// sensors and corrupted floats. This package is the single choke point
// where hostile input is caught: every public entry point of the cabd
// facade routes its values through Series or Multi and attaches the
// resulting Report to its output.
//
// Three policies are offered. Interpolate (the default) repairs bad
// values by linear interpolation between the nearest finite neighbors —
// detection proceeds on a plausible series and the Report says which
// points were synthesized. Drop removes bad points, compacting the
// series; the returned index map lets callers translate detection
// positions back to the original layout. Reject refuses any series
// containing a bad value, for callers that must not silently repair.
package sanitize

import (
	"errors"
	"fmt"
	"math"

	"cabd/internal/stats"
)

// Policy selects how bad values (NaN, ±Inf, out-of-range magnitudes) are
// handled. The zero value is Interpolate.
type Policy int

const (
	// Interpolate repairs bad values by linear interpolation between the
	// nearest finite neighbors (edge runs take the nearest finite value).
	Interpolate Policy = iota
	// Drop removes bad points, compacting the series.
	Drop
	// Reject returns ErrBadValues when any bad value is present.
	Reject
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Interpolate:
		return "interpolate"
	case Drop:
		return "drop"
	case Reject:
		return "reject"
	default:
		return "unknown"
	}
}

// ParsePolicy maps a flag string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "interpolate", "":
		return Interpolate, nil
	case "drop":
		return Drop, nil
	case "reject":
		return Reject, nil
	default:
		return Interpolate, fmt.Errorf("sanitize: unknown policy %q (want interpolate, drop or reject)", s)
	}
}

// Sentinel errors. Callers match with errors.Is.
var (
	// ErrEmpty reports a nil or zero-length series.
	ErrEmpty = errors.New("sanitize: empty series")
	// ErrTooShort reports a series below the minimum analyzable length.
	ErrTooShort = errors.New("sanitize: series too short")
	// ErrBadValues reports NaN/Inf/out-of-range values under Reject.
	ErrBadValues = errors.New("sanitize: series contains NaN, Inf or out-of-range values")
	// ErrAllBad reports a series with no finite values to anchor repairs.
	ErrAllBad = errors.New("sanitize: series has no finite values")
	// ErrRagged reports multivariate dimensions of unequal length.
	ErrRagged = errors.New("sanitize: dimensions have different lengths")
)

// DefaultMaxAbs is the magnitude beyond which a float is treated as
// corrupted even though it is finite: values above sqrt(MaxFloat64)-ish
// overflow to ±Inf the moment the pipeline squares them (variance,
// Euclidean distances), so they are as hostile as an Inf.
const DefaultMaxAbs = 1e150

// Config parameterizes sanitization. The zero value is usable:
// Interpolate policy, minimum length 4 (the detector's floor), magnitude
// bound DefaultMaxAbs.
type Config struct {
	// Policy selects the bad-value handling. Default Interpolate.
	Policy Policy
	// MinLen is the minimum series length after sanitization; shorter
	// input returns ErrTooShort. Default 4. Negative disables the check.
	MinLen int
	// MaxAbs is the magnitude bound beyond which a finite value counts
	// as corrupted. Default DefaultMaxAbs. Negative disables the bound
	// (±Inf and NaN are always bad).
	MaxAbs float64
}

func (c Config) defaults() Config {
	if c.MinLen == 0 {
		c.MinLen = 4
	}
	if c.MaxAbs == 0 {
		c.MaxAbs = DefaultMaxAbs
	}
	return c
}

// Report describes what sanitization found and repaired in one series.
type Report struct {
	// Policy is the policy that was applied.
	Policy Policy
	// N is the original series length (time steps for multivariate).
	N int
	// NaNs, Infs and Extremes count the bad values by kind (summed over
	// dimensions for multivariate input).
	NaNs, Infs, Extremes int
	// Repaired lists the original indices whose values were synthesized
	// by interpolation, sorted ascending.
	Repaired []int
	// Dropped lists the original indices removed under Drop, sorted.
	Dropped []int
	// Constant is set when the sanitized series has zero spread — the
	// detector will legitimately find nothing (a flatlined sensor).
	Constant bool
	// TooShort is set when the series failed the minimum-length check.
	TooShort bool
}

// Bad returns the total number of bad values found.
func (r *Report) Bad() int { return r.NaNs + r.Infs + r.Extremes }

// Clean reports whether the input needed no intervention at all.
func (r *Report) Clean() bool {
	return r.Bad() == 0 && !r.TooShort && len(r.Dropped) == 0
}

// String summarizes the report for logs.
func (r *Report) String() string {
	return fmt.Sprintf("sanitize(%s): n=%d nan=%d inf=%d extreme=%d repaired=%d dropped=%d constant=%v",
		r.Policy, r.N, r.NaNs, r.Infs, r.Extremes, len(r.Repaired), len(r.Dropped), r.Constant)
}

// Finite reports whether v is a usable observation under the magnitude
// bound maxAbs (<= 0 means only NaN/±Inf are rejected).
func Finite(v, maxAbs float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	return maxAbs <= 0 || math.Abs(v) <= maxAbs
}

// classify increments the report counter matching the bad value v.
func (r *Report) classify(v float64) {
	switch {
	case math.IsNaN(v):
		r.NaNs++
	case math.IsInf(v, 0):
		r.Infs++
	default:
		r.Extremes++
	}
}

// Series sanitizes one univariate series under cfg: the one-dimension
// case of Multi.
//
// The returned slice is the input itself when no repair was needed, or a
// fresh copy otherwise; the input is never modified. index is non-nil
// only under Drop with at least one removal: index[i] is the original
// position of clean[i], letting callers map detection indices back. The
// Report is always non-nil, even on error.
func Series(values []float64, cfg Config) (clean []float64, index []int, rep *Report, err error) {
	dims, index, rep, err := Multi([][]float64{values}, cfg)
	if dims != nil {
		clean = dims[0]
	}
	return clean, index, rep, err
}

// Multi sanitizes a multivariate series: dims holds d value slices over
// the same clock. All dimensions must have equal length (ErrRagged). A
// time step is bad when any dimension is bad at that index, so Drop
// removes whole time steps and the index map stays shared across
// dimensions; Interpolate repairs each dimension independently. A
// single dimension is a univariate series. The returned slices and the
// Report follow Series' contract.
func Multi(dims [][]float64, cfg Config) (clean [][]float64, index []int, rep *Report, err error) {
	cfg = cfg.defaults()
	rep = &Report{Policy: cfg.Policy}
	if len(dims) == 0 || len(dims[0]) == 0 {
		rep.TooShort = true
		return nil, nil, rep, ErrEmpty
	}
	n := len(dims[0])
	rep.N = n
	for _, dim := range dims[1:] {
		if len(dim) != n {
			return nil, nil, rep, fmt.Errorf("%w (%d vs %d)", ErrRagged, len(dim), n)
		}
	}
	badStep := make([]bool, n)
	perDim := make([][]int, len(dims))
	for k, dim := range dims {
		for i, v := range dim {
			if !Finite(v, cfg.MaxAbs) {
				perDim[k] = append(perDim[k], i)
				badStep[i] = true
				rep.classify(v)
			}
		}
	}
	var bad []int // time steps bad in any dimension, ascending
	for i, b := range badStep {
		if b {
			bad = append(bad, i)
		}
	}
	switch {
	case len(bad) == 0:
		clean = dims
	case cfg.Policy == Reject:
		return nil, nil, rep, fmt.Errorf("%w (%d values)", ErrBadValues, rep.Bad())
	case cfg.Policy == Drop:
		if len(bad) == n {
			return nil, nil, rep, ErrAllBad
		}
		index = make([]int, 0, n-len(bad))
		for i, b := range badStep {
			if !b {
				index = append(index, i)
			}
		}
		clean = make([][]float64, len(dims))
		for k, dim := range dims {
			kept := make([]float64, len(index))
			for j, i := range index {
				kept[j] = dim[i]
			}
			clean[k] = kept
		}
		rep.Dropped = bad
	default: // Interpolate
		clean = make([][]float64, len(dims))
		for k, dim := range dims {
			switch len(perDim[k]) {
			case 0:
				clean[k] = dim
			case n:
				return nil, nil, rep, ErrAllBad
			default:
				clean[k] = interpolate(dim, perDim[k], cfg.MaxAbs)
			}
		}
		rep.Repaired = bad
	}
	if cfg.MinLen > 0 && len(clean[0]) < cfg.MinLen {
		rep.TooShort = true
		return clean, index, rep, fmt.Errorf("%w (%d < %d)", ErrTooShort, len(clean[0]), cfg.MinLen)
	}
	rep.Constant = true
	for _, dim := range clean {
		if !isConstant(dim) {
			rep.Constant = false
			break
		}
	}
	return clean, index, rep, nil
}

// interpolate returns a copy of values with every index in bad (sorted
// ascending) replaced by the linear interpolation between the nearest
// finite neighbors; edge runs take the nearest finite value. bad must
// not cover the whole slice.
func interpolate(values []float64, bad []int, maxAbs float64) []float64 {
	out := make([]float64, len(values))
	copy(out, values)
	for s := 0; s < len(bad); {
		e := s
		for e+1 < len(bad) && bad[e+1] == bad[e]+1 {
			e++
		}
		lo, hi := bad[s], bad[e] // maximal contiguous bad run
		left, right := lo-1, hi+1
		switch {
		case left < 0 && right >= len(out):
			// Unreachable: callers guard the all-bad case.
		case left < 0:
			for i := lo; i <= hi; i++ {
				out[i] = out[right]
			}
		case right >= len(out):
			for i := lo; i <= hi; i++ {
				out[i] = out[left]
			}
		default:
			span := float64(right - left)
			for i := lo; i <= hi; i++ {
				t := float64(i-left) / span
				out[i] = out[left]*(1-t) + out[right]*t
			}
		}
		s = e + 1
	}
	return out
}

// isConstant reports whether xs has zero spread.
func isConstant(xs []float64) bool {
	if len(xs) == 0 {
		return true
	}
	for _, v := range xs[1:] {
		// Tolerance 0: a flatlined sensor repeats the identical float, so
		// the spread check is exact by contract.
		if !stats.ApproxEq(v, xs[0], 0) {
			return false
		}
	}
	return true
}
