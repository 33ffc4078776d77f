// Package stats provides the robust statistics primitives used throughout
// the CABD reproduction: moments, medians, MAD (Definition 4 of the paper),
// quantiles, histograms and normalization helpers.
//
// All functions operate on []float64 and never modify their input unless
// explicitly documented. NaN handling: inputs are assumed NaN-free — the
// internal/sanitize layer enforces this at every public entry point, and
// the synthetic generators produce clean series by construction.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n), or 0 when
// len(xs) < 2. The population form matches Equation 2 of the paper, where
// series are standardized by the dataset standard deviation.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Variance2 returns the population variance of the virtual concatenation
// a++b without materializing it. Both passes (mean, then squared
// deviations) visit a before b, so the accumulation order — and therefore
// the float64 result — is bit-identical to Variance(append(a, b...)).
// It exists for the scoring hot path, which needs the variance of a
// window with its center span cut out.
func Variance2(a, b []float64) float64 {
	n := len(a) + len(b)
	if n < 2 {
		return 0
	}
	var s float64
	for _, x := range a {
		s += x
	}
	for _, x := range b {
		s += x
	}
	m := s / float64(n)
	s = 0
	for _, x := range a {
		d := x - m
		s += d * d
	}
	for _, x := range b {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// Median returns the median of xs without modifying it, or 0 for an empty
// slice. Even-length inputs return the midpoint of the two central values.
// The central values are selected from a copy, in sort.Float64s's order
// (NaN first), so the result equals the middle of the sorted copy without
// sorting it.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	k := n / 2
	selectKth(cp, k)
	if n%2 == 1 {
		return cp[k]
	}
	// Every value left of k precedes or ties cp[k]; the largest of them
	// is the lower middle.
	lower := cp[0]
	for _, x := range cp[1:k] {
		if nanFirstLess(lower, x) {
			lower = x
		}
	}
	return (lower + cp[k]) / 2
}

// nanFirstLess is sort.Float64s's order: numeric, with NaN before every
// number.
func nanFirstLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectKth reorders xs so that xs[k] holds the value sorting xs would put
// there, no value before it follows it and none after it precedes it (in
// nanFirstLess's order). Each round partitions the span holding k three
// ways about a median-of-three pivot, so a run of tied values — quantized
// data, a collapsed MAD — is settled in one pass instead of one value at
// a time. Rounds that scan more than 8·len(xs) values in all hand the span
// to heapSelect, so an input crafted against the pivot rule costs
// O(n log n), not O(n²).
func selectKth(xs []float64, k int) {
	lo, hi := 0, len(xs)
	for budget := 8 * len(xs); hi-lo > 1; budget -= hi - lo {
		if budget < 0 {
			heapSelect(xs[lo:hi], k-lo)
			return
		}
		a, p, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		if nanFirstLess(p, a) {
			a, p = p, a
		}
		if nanFirstLess(c, p) {
			p = c
			if nanFirstLess(p, a) {
				p = a
			}
		}
		// xs[lo:lt] precedes p, xs[lt:i] ties it, xs[gt:hi] follows it.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case nanFirstLess(xs[i], p):
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case nanFirstLess(p, xs[i]):
				gt--
				xs[i], xs[gt] = xs[gt], xs[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// heapSelect does selectKth's job in O(n log n) for any input: xs[:k+1]
// becomes a max-heap of the k+1 smallest values, whose top is then swapped
// into xs[k].
func heapSelect(xs []float64, k int) {
	h := xs[:k+1]
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for j := k + 1; j < len(xs); j++ {
		if nanFirstLess(xs[j], h[0]) {
			h[0], xs[j] = xs[j], h[0]
			siftDown(h, 0)
		}
	}
	xs[0], xs[k] = xs[k], xs[0]
}

// siftDown restores the max-heap order of h below node i.
func siftDown(h []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && nanFirstLess(h[c], h[c+1]) {
			c++
		}
		if !nanFirstLess(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// MAD returns the Median Absolute Deviation of xs (Definition 4):
// median(|x_i - median(xs)|). It is the robust dispersion measure the
// candidate-estimation step uses.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return madAbout(xs, Median(xs), make([]float64, len(xs)))
}

// madAbout writes |x - med| for every element of xs into dev and returns
// the median of those deviations: the MAD of xs when med is its median.
func madAbout(xs []float64, med float64, dev []float64) float64 {
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// RobustZ returns |x - median| / MAD for every element, the robust z-score
// used to select candidate points. When MAD is zero (constant data), the
// score is 0 where x equals the median and +Inf elsewhere. The median is
// found once: the deviations MAD takes its median of are the scores'
// numerators.
func RobustZ(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	mad := madAbout(xs, Median(xs), out)
	for i, d := range out {
		switch {
		case mad > 0:
			out[i] = d / mad
		case d == 0:
			out[i] = 0
		default:
			out[i] = math.Inf(1)
		}
	}
	return out
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics, matching the common "type 7"
// definition. It returns 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return cp[n-1]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// ApproxEq reports whether a and b agree to within tol. It is the
// sanctioned float comparison of the codebase (the floateq lint rule bans
// raw == / != between floats): tol 0 demands exact agreement — use it
// only where bit-level identity is the contract (flatline detection,
// degenerate distributions) — and NaN never equals anything, matching
// IEEE semantics.
func ApproxEq(a, b, tol float64) bool {
	if a == b { //cabd:lint-ignore floateq the one sanctioned exact comparison; every tolerance check funnels through here
		return true // covers equal infinities, which Abs(a-b) would turn into NaN
	}
	return math.Abs(a-b) <= tol
}

// Standardize rescales xs in place-free fashion to zero mean and unit
// standard deviation (Equation 2). A constant series maps to all zeros.
func Standardize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	m := Mean(xs)
	sd := Std(xs)
	if sd == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / sd
	}
	return out
}

// Histogram bins xs into nbins equal-width bins over [min, max] and returns
// the counts plus the bin edges (len nbins+1). Values equal to max fall in
// the last bin. A degenerate range produces all mass in bin 0.
func Histogram(xs []float64, nbins int) (counts []int, edges []float64) {
	if nbins < 1 {
		nbins = 1
	}
	counts = make([]int, nbins)
	edges = make([]float64, nbins+1)
	if len(xs) == 0 {
		return counts, edges
	}
	lo, hi := Min(xs), Max(xs)
	if hi <= lo {
		for i := range edges {
			edges[i] = lo
		}
		counts[0] = len(xs)
		return counts, edges
	}
	w := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	edges[nbins] = hi
	for _, x := range xs {
		b := int((x - lo) / w)
		if b >= nbins {
			b = nbins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return counts, edges
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length slices, or 0 when either side has zero variance.
func Correlation(a, b []float64) float64 {
	n := len(a)
	if n != len(b) || n < 2 {
		return 0
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// RMS returns the root-mean-square difference between two equal-length
// slices, the repair-quality metric of Section V-G. Mismatched lengths
// compare over the shorter prefix.
func RMS(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}
