package inn

import (
	"os"
	"sort"

	"cabd/internal/kdtree"
)

// NComputer is the d-dimensional counterpart of Computer, backing the
// multivariate extension (the paper's future-work direction). Points are
// (standardized index, standardized value_1, ..., standardized value_d)
// rows; the neighborhood semantics — per-offset mutual rank bound, 5%
// search-range prune, contiguous runs — are identical to the univariate
// case, and so is the probe engine: rank queries by default, the naive
// k-NN-membership oracle behind CABD_INN_ENGINE=legacy.
type NComputer struct {
	pts    [][]float64
	tree   *kdtree.ND
	legacy bool
}

// NewNComputer indexes pts (rows are points of equal dimension).
func NewNComputer(pts [][]float64) *NComputer {
	return &NComputer{
		pts:    pts,
		tree:   kdtree.NewND(pts),
		legacy: os.Getenv(LegacyEngineEnv) == "legacy",
	}
}

// WithLegacyProbes returns a copy of c using the naive probe path — the
// differential-testing hook (see Computer.WithLegacyProbes).
func (c *NComputer) WithLegacyProbes(on bool) *NComputer {
	cc := *c
	cc.legacy = on
	return &cc
}

// Len returns the number of indexed points.
func (c *NComputer) Len() int { return len(c.pts) }

// RangeLimit returns the pruned search range: ceil(frac*n) clamped to
// [1, n-1]. frac <= 0 selects DefaultRangeFrac.
func (c *NComputer) RangeLimit(frac float64) int {
	if frac <= 0 {
		frac = DefaultRangeFrac
	}
	n := len(c.pts)
	t := int(frac * float64(n))
	if float64(t) < frac*float64(n) {
		t++
	}
	if t < 1 {
		t = 1
	}
	if t > n-1 {
		t = n - 1
	}
	return t
}

// KNN returns the indices of the k nearest neighbors of point i
// (excluding i), ordered by increasing distance.
func (c *NComputer) KNN(i, k int) []int {
	var scratch [64]kdtree.Neighbor
	var nbs []kdtree.Neighbor
	if k <= len(scratch) {
		nbs = c.tree.KNNInto(c.pts[i], k, i, scratch[:0])
	} else {
		nbs = c.tree.KNN(c.pts[i], k, i)
	}
	out := make([]int, len(nbs))
	for j, nb := range nbs {
		out[j] = nb.Index
	}
	return out
}

// Rank returns the number of points ordering strictly ahead of x_j in the
// (distance, index)-sorted neighbor list of x_i (see Computer.Rank).
func (c *NComputer) Rank(i, j int) int {
	return c.tree.Rank(c.pts[i], kdtree.DistN(c.pts[i], c.pts[j]), j, i)
}

// InTopK reports whether point j is among the k nearest neighbors of i.
func (c *NComputer) InTopK(i, j, k int) bool {
	n := len(c.pts)
	if i == j || i < 0 || j < 0 || i >= n || j >= n {
		return false
	}
	if c.legacy {
		for _, idx := range c.KNN(i, k) {
			if idx == j {
				return true
			}
		}
		return false
	}
	// Bounded probe: abort the rank walk at k (see Computer.InTopK).
	return c.tree.RankAtMost(c.pts[i], kdtree.DistN(c.pts[i], c.pts[j]), j, i, k) < k
}

func (c *NComputer) mutualAt(i, dir, o, t int) bool {
	j := i + dir*o
	b := offsetBound(o, t)
	return c.InTopK(i, j, b) && c.InTopK(j, i, b)
}

// Minimal returns the contiguous INN of point i at threshold t (linear
// per-side scan). Members sorted ascending, excluding i.
func (c *NComputer) Minimal(i, t int) []int {
	n := len(c.pts)
	if n < 2 {
		return nil
	}
	if t <= 0 || t > n-1 {
		t = n - 1
	}
	left := c.scanSide(i, -1, t)
	right := c.scanSide(i, +1, t)
	return collect(i, left, right)
}

// Binary returns the contiguous INN of point i at threshold t via the
// galloping binary search of Algorithm 5.
func (c *NComputer) Binary(i, t int) []int {
	n := len(c.pts)
	if n < 2 {
		return nil
	}
	if t <= 0 || t > n-1 {
		t = n - 1
	}
	left := c.binarySide(i, -1, t)
	right := c.binarySide(i, +1, t)
	return collect(i, left, right)
}

// MutualSet returns every j with mutual top-t membership with i (the
// unconstrained set version), sorted ascending.
func (c *NComputer) MutualSet(i, t int) []int {
	n := len(c.pts)
	if n < 2 {
		return nil
	}
	if t <= 0 || t > n-1 {
		t = n - 1
	}
	var out []int
	for _, j := range c.KNN(i, t) {
		if c.InTopK(j, i, t) {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

func (c *NComputer) scanSide(i, dir, t int) int {
	n := len(c.pts)
	ext := 0
	for o := 1; o <= t; o++ {
		j := i + dir*o
		if j < 0 || j >= n {
			break
		}
		if !c.mutualAt(i, dir, o, t) {
			break
		}
		ext = o
	}
	return ext
}

func (c *NComputer) binarySide(i, dir, t int) int {
	n := len(c.pts)
	maxOff := t
	if dir > 0 && i+maxOff > n-1 {
		maxOff = n - 1 - i
	}
	if dir < 0 && i-maxOff < 0 {
		maxOff = i
	}
	if maxOff < 1 || !c.mutualAt(i, dir, 1, t) {
		return 0
	}
	pass := 1
	probe := 2
	for probe <= maxOff && c.mutualAt(i, dir, probe, t) {
		pass = probe
		probe *= 2
	}
	hi := probe - 1
	if hi > maxOff {
		hi = maxOff
	}
	lo, best := pass+1, pass
	for lo <= hi {
		m := (lo + hi) / 2
		if c.mutualAt(i, dir, m, t) {
			best = m
			lo = m + 1
		} else {
			hi = m - 1
		}
	}
	return best
}
