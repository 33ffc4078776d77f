// Package spot implements SPOT and DSPOT (Siffer et al. [33]): streaming
// anomaly detection via extreme value theory. Excesses over an initial
// high quantile are fitted with a Generalized Pareto Distribution using
// Grimshaw's maximum-likelihood trick; the fitted tail yields a dynamic
// decision threshold z_q for a target risk q. DSPOT adds a drift
// correction (local mean removal) so the bound follows non-stationary
// streams. Both are Figure 8 baselines; the paper calls out their "q" as
// one of the dataset-specific parameters CABD avoids.
package spot

import (
	"math"
	"sort"

	"cabd/internal/series"
	"cabd/internal/stats"
)

// Config parameterizes SPOT.
type Config struct {
	Q         float64 // target risk (default 1e-4)
	InitFrac  float64 // calibration fraction (default 0.2, at least 50 pts)
	InitLevel float64 // initial threshold quantile (default 0.98)
	Depth     int     // DSPOT drift window (0 = plain SPOT)
}

func (c *Config) defaults() {
	if c.Q <= 0 {
		c.Q = 1e-4
	}
	if c.InitFrac <= 0 {
		c.InitFrac = 0.2
	}
	if c.InitLevel <= 0 {
		c.InitLevel = 0.98
	}
}

// Detector is the SPOT/DSPOT baseline.
type Detector struct {
	cfg Config
}

// New returns a SPOT detector (Depth = 0) or DSPOT (Depth > 0).
func New(cfg Config) *Detector {
	cfg.defaults()
	return &Detector{cfg: cfg}
}

// Name implements common.Detector.
func (d *Detector) Name() string {
	if d.cfg.Depth > 0 {
		return "DSPOT"
	}
	return "SPOT"
}

// Detect runs the streaming POT procedure on both tails and returns the
// union of flagged indices.
func (d *Detector) Detect(s *series.Series) []int {
	up := d.tail(s.Values)
	neg := make([]float64, s.Len())
	for i, v := range s.Values {
		neg[i] = -v
	}
	down := d.tail(neg)
	set := map[int]bool{}
	for _, i := range up {
		set[i] = true
	}
	for _, i := range down {
		set[i] = true
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// tail runs one-sided SPOT/DSPOT on xs (upper tail).
func (d *Detector) tail(xs []float64) []int {
	n := len(xs)
	init := int(d.cfg.InitFrac * float64(n))
	if init < 50 {
		init = 50
	}
	if init >= n {
		return nil
	}
	depth := d.cfg.Depth
	// Drift correction: work on x_i - mean(last depth values).
	drift := func(i int) float64 {
		if depth <= 0 {
			return 0
		}
		lo := i - depth
		if lo < 0 {
			lo = 0
		}
		if lo == i {
			return 0
		}
		return stats.Mean(xs[lo:i])
	}
	calib := make([]float64, init)
	for i := 0; i < init; i++ {
		calib[i] = xs[i] - drift(i)
	}
	u := stats.Quantile(calib, d.cfg.InitLevel)
	var peaks []float64
	for _, v := range calib {
		if v > u {
			peaks = append(peaks, v-u)
		}
	}
	total := init
	zq := threshold(u, peaks, total, d.cfg.Q)
	var out []int
	for i := init; i < n; i++ {
		v := xs[i] - drift(i)
		switch {
		case v > zq:
			out = append(out, i)
		case v > u:
			peaks = append(peaks, v-u)
			total++
			zq = threshold(u, peaks, total, d.cfg.Q)
		default:
			total++
		}
	}
	return out
}

// threshold computes z_q from the GPD fit of the peaks.
func threshold(u float64, peaks []float64, total int, q float64) float64 {
	if len(peaks) == 0 {
		return u
	}
	gamma, sigma := Grimshaw(peaks)
	r := q * float64(total) / float64(len(peaks))
	if gamma != 0 {
		return u + sigma/gamma*(math.Pow(r, -gamma)-1)
	}
	return u - sigma*math.Log(r)
}

// Grimshaw fits a Generalized Pareto Distribution to the positive
// excesses ys by Grimshaw's reduction of the 2-parameter MLE to a 1-D
// root search, returning (gamma, sigma). The exponential fit (gamma = 0)
// is used when it has the best likelihood or no root exists.
func Grimshaw(ys []float64) (gamma, sigma float64) {
	n := len(ys)
	if n == 0 {
		return 0, 1
	}
	mean := stats.Mean(ys)
	if mean <= 0 {
		return 0, 1e-9
	}
	ymax := stats.Max(ys)
	ymin := stats.Min(ys)
	// Candidate tau ranges per the SPOT reference implementation.
	eps := 1e-8 / mean
	lo := -1/ymax + eps
	a := 2 * (mean - ymin) / (mean * ymin)
	b := 2 * (mean - ymin) / (ymin * ymin)
	if a <= 0 {
		a = eps
	}
	if b <= a {
		b = a + 1
	}

	uv := func(tau float64) (u, v float64) {
		for _, y := range ys {
			t := 1 + tau*y
			u += 1 / t
			v += math.Log(t)
		}
		u /= float64(n)
		v = 1 + v/float64(n)
		return u, v
	}
	f := func(tau float64) float64 {
		u, v := uv(tau)
		return u*v - 1
	}
	var roots []float64
	for _, rg := range [][2]float64{{lo, -eps}, {eps, a}, {a, b}} {
		roots = append(roots, bisectRoots(f, rg[0], rg[1], 24)...)
	}
	// Evaluate candidates (plus the exponential fit) by log-likelihood.
	bestLL := math.Inf(-1)
	gamma, sigma = 0, mean // exponential fit
	bestLL = expLL(ys, mean)
	for _, tau := range roots {
		_, v := uv(tau)
		g := v - 1
		if g == 0 || tau == 0 {
			continue
		}
		sg := g / tau
		if sg <= 0 {
			continue
		}
		ll := gpdLL(ys, g, sg)
		if ll > bestLL {
			bestLL, gamma, sigma = ll, g, sg
		}
	}
	return gamma, sigma
}

// bisectRoots scans [lo, hi] on a grid and bisects each sign change.
func bisectRoots(f func(float64) float64, lo, hi float64, grid int) []float64 {
	if hi <= lo {
		return nil
	}
	var roots []float64
	step := (hi - lo) / float64(grid)
	prevX := lo
	prevF := f(lo)
	for i := 1; i <= grid; i++ {
		x := lo + float64(i)*step
		fx := f(x)
		if prevF == 0 {
			roots = append(roots, prevX)
		} else if prevF*fx < 0 {
			a, b := prevX, x
			fa := prevF
			for it := 0; it < 60; it++ {
				m := (a + b) / 2
				fm := f(m)
				if fa*fm <= 0 {
					b = m
				} else {
					a, fa = m, fm
				}
			}
			roots = append(roots, (a+b)/2)
		}
		prevX, prevF = x, fx
	}
	return roots
}

func gpdLL(ys []float64, g, s float64) float64 {
	n := float64(len(ys))
	ll := -n * math.Log(s)
	for _, y := range ys {
		t := 1 + g*y/s
		if t <= 0 {
			return math.Inf(-1)
		}
		ll -= (1 + 1/g) * math.Log(t)
	}
	return ll
}

func expLL(ys []float64, mean float64) float64 {
	n := float64(len(ys))
	return -n*math.Log(mean) - n
}
