// Package inn implements the paper's Inverse Nearest Neighbor concept
// (Section III). A point x_m belongs to INN_r(x_i) iff x_m is among the r
// nearest neighbors of x_i AND x_i is among the r nearest neighbors of x_m
// (Equation 3). The minimal INN of a point is grown until no new members
// join (Algorithm 1); no per-dataset k needs choosing.
//
// # Interpretation
//
// The paper's Algorithm 1 walkthrough (Example 2) and its printed distance
// table disagree: the literal "grow r, stop at the first barren round"
// rule stops at r = 2 with INN(x4) = {x5}, while the walkthrough admits
// {x5..x9} and justifies all admissions with a single rank check at the
// final radius. The formulation implemented here is the one that both
// reproduces Example 2 exactly and preserves the stated worst-case
// behaviour ("the INN of a point is the whole dataset" for a flat series,
// fixed by the 5% search-range prune of Section IV):
//
//	x_{i±o} ∈ INN(x_i)  iff  x_{i±o} ∈ NN_b(x_i) ∧ x_i ∈ NN_b(x_{i±o}),
//	b = min(3o+9, t)
//
// — Algorithm 5's literal per-offset rank bound ("x_m ∈ NN_m(x_i) and
// x_m ∈ RNN_m(x_i)", with affine slack because a contiguous group's members
// interleave with both sides in rank order), capped by the search-range
// bound t. The *minimal* INN used by CABD is the contiguous run of such
// mutual neighbors around x_i (Algorithm 5 explicitly assumes "INN(x) is
// not segmented"). With the paper's prune, t = 5% of the dataset; with
// t = n-1 and flat data the rank bound is always met and the neighborhood
// degenerates to (nearly) the whole dataset, exactly as Section III warns.
// The non-contiguous MutualSet reference uses the flat bound t.
//
// Three computation strategies mirror the paper's cost discussion:
//
//   - MutualSet: the unconstrained set version of Algorithm 1 (no
//     contiguity), O(t) rank probes — the "unoptimized" reference;
//   - Minimal: contiguous linear per-side scan, O(extent) probes;
//   - Binary: Algorithm 5, per-side binary search, O(log t) probes.
//
// A fixed-k KNN neighborhood is also exposed for the CABD-KNN ablation
// (Figure 12).
package inn

import (
	"sort"
	"sync"

	"cabd/internal/kdtree"
	"cabd/internal/series"
)

// DefaultRangeFrac is the pruning bound of the optimized INN search: an
// anomalous pattern should not exceed 5% of the dataset (Section IV).
const DefaultRangeFrac = 0.05

// index answers the two primitive queries every INN strategy reduces to,
// over the point set identified by indices 0..Len()-1 and the documented
// (distance, index) neighbor order. Rank counting and k-NN sets are
// functions of the points and the metric, not of the tree, so the 2-D
// and N-D indexes below answer identically for the same logical points.
type index interface {
	// Len returns the number of indexed points.
	Len() int
	// RankAtMost returns min(rank, limit), where rank is the number of
	// points ordering strictly ahead of point j in the (distance, index)
	// neighbor order of point i (excluding i and j themselves). A result
	// below limit is the exact rank.
	RankAtMost(i, j, limit int) int
	// KNNInto returns the k nearest neighbors of point i (excluding i),
	// ascending by (distance, index), reusing buf when it suffices.
	KNNInto(i, k int, buf []kdtree.Neighbor) []kdtree.Neighbor
}

// staticIndex is the univariate index: a 2-D KD-tree over the
// (standardized index, standardized value) embedding.
type staticIndex struct {
	pts  [][2]float64
	tree *kdtree.KD
}

func (s *staticIndex) Len() int { return len(s.pts) }

func (s *staticIndex) RankAtMost(i, j, limit int) int {
	return s.tree.RankAtMost(s.pts[i], kdtree.Dist(s.pts[i], s.pts[j]), j, i, limit)
}

func (s *staticIndex) KNNInto(i, k int, buf []kdtree.Neighbor) []kdtree.Neighbor {
	return s.tree.KNNInto(s.pts[i], k, i, buf)
}

// ndIndex is the multivariate index: an N-D KD-tree over (standardized
// index, standardized value_1, ..., standardized value_d) rows.
type ndIndex struct {
	pts  [][]float64
	tree *kdtree.ND
}

func (s *ndIndex) Len() int { return len(s.pts) }

func (s *ndIndex) RankAtMost(i, j, limit int) int {
	return s.tree.RankAtMost(s.pts[i], kdtree.DistN(s.pts[i], s.pts[j]), j, i, limit)
}

func (s *ndIndex) KNNInto(i, k int, buf []kdtree.Neighbor) []kdtree.Neighbor {
	return s.tree.KNNInto(s.pts[i], k, i, buf)
}

// Computer computes neighborhoods over an indexed point set: the 2-D
// embedding of a univariate series (NewComputer) or the joint embedding
// of a multivariate one (NewNComputer). It is safe for concurrent use
// after construction.
//
// Membership probes ("is x_j among the k nearest neighbors of x_i?") are
// answered by a rank query: one allocation-free index walk counting the
// points that order ahead of x_j under the (distance, index) tie-break,
// so InTopK(i, j, k) is rank(i, j) < k with cost O(log n + |ball|)
// instead of a full allocating k-NN query per probe.
type Computer struct {
	idx  index
	n    int       // cached idx.Len()
	memo *rankMemo // (i,j) -> rank cache; measurement only, see WithRankMemo
}

// NewComputer indexes 2-D points (built once, queried many times).
func NewComputer(pts [][2]float64) *Computer {
	return newComputerOver(&staticIndex{pts: pts, tree: kdtree.New(pts)})
}

// NewNComputer indexes d-dimensional points (rows of equal length) for
// the multivariate extension. The neighborhood semantics — per-offset
// mutual rank bound, 5% search-range prune, contiguous runs — and the
// probe engine are those of the 2-D case.
func NewNComputer(pts [][]float64) *Computer {
	return newComputerOver(&ndIndex{pts: pts, tree: kdtree.NewND(pts)})
}

func newComputerOver(idx index) *Computer {
	return &Computer{idx: idx, n: idx.Len()}
}

// WithRankMemo returns a copy of c that caches rank probes in a bounded
// sharded memo. capacity <= 0 selects the default (~64k entries). The
// memo is shared by every neighborhood call on the returned Computer and
// is safe for concurrent use; it never exceeds its bound (full shards
// reset).
//
// The memo is for measurement only: no detector attaches it. In a
// detect's scoring pass it answers about one probe in sixteen, and its
// locking and per-call maps cost more than the walks it saves. It stays
// so the benchmark's layer sweep can keep reporting the hit ratio
// (MemoStats) that showed this.
func (c *Computer) WithRankMemo(capacity int) *Computer {
	cc := *c
	cc.memo = newRankMemo(capacity)
	return &cc
}

// MemoStats returns the rank memo's cumulative probe hit/miss counts
// (zeros when no memo is attached).
func (c *Computer) MemoStats() (hits, misses int64) {
	if c.memo == nil {
		return 0, 0
	}
	return c.memo.stats()
}

// FromSeries builds a Computer over the (standardized index, standardized
// value) embedding of s.
func FromSeries(s *series.Series) *Computer {
	return NewComputer(s.Points())
}

// Len returns the number of indexed points.
func (c *Computer) Len() int { return c.n }

// RangeLimit returns the pruned search range for this dataset:
// ceil(frac*n) clamped to [1, n-1]. frac <= 0 selects DefaultRangeFrac.
func (c *Computer) RangeLimit(frac float64) int {
	if frac <= 0 {
		frac = DefaultRangeFrac
	}
	n := c.n
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

// KNN returns the indices of the k nearest neighbors of point i (excluding
// i itself), ordered by increasing distance with index tie-break.
func (c *Computer) KNN(i, k int) []int {
	// Small queries run over a stack scratch buffer so only the returned
	// index slice allocates.
	var scratch [64]kdtree.Neighbor
	var nbs []kdtree.Neighbor
	if k <= len(scratch) {
		nbs = c.idx.KNNInto(i, k, scratch[:0])
	} else {
		nbs = c.idx.KNNInto(i, k, nil)
	}
	out := make([]int, len(nbs))
	for j, nb := range nbs {
		out[j] = nb.Index
	}
	return out
}

// Rank returns the number of points that order strictly ahead of x_j in
// the (distance, index)-sorted neighbor list of x_i — the quantity one
// probe needs: x_j ∈ NN_k(x_i) iff Rank(i, j) < k. One allocation-free
// tree walk, memoized when the Computer carries a rank memo.
func (c *Computer) Rank(i, j int) int {
	if c.memo != nil {
		key := uint64(i)*uint64(c.n) + uint64(j)
		if r, ok := c.memo.get(key); ok {
			return r
		}
		r := c.idx.RankAtMost(i, j, c.n)
		c.memo.put(key, r)
		return r
	}
	return c.idx.RankAtMost(i, j, c.n)
}

// InTopK reports whether point j is among the k nearest neighbors of
// point i, i.e. x_j ∈ NN_k(x_i).
func (c *Computer) InTopK(i, j, k int) bool {
	n := c.n
	if i == j || i < 0 || j < 0 || i >= n || j >= n {
		return false
	}
	if k >= n {
		return c.Rank(i, j) < k
	}
	// The probe only needs rank < k, so the walk may abort once k closer
	// points are seen — a failing probe costs O(k) visits instead of the
	// full ball of radius d(i, j). A memo hit still answers any k; a
	// bounded result is cached only when it completed (exact rank).
	if c.memo != nil {
		key := uint64(i)*uint64(n) + uint64(j)
		if r, ok := c.memo.get(key); ok {
			return r < k
		}
		r := c.idx.RankAtMost(i, j, k)
		if r < k {
			c.memo.put(key, r)
		}
		return r < k
	}
	return c.idx.RankAtMost(i, j, k) < k
}

// MutualSet returns every j with mutual top-t membership with i — the
// unconstrained (non-contiguous) INN of Algorithm 1. Sorted ascending,
// excluding i. Cost: one k-NN query of size t plus up to t reverse probes.
func (c *Computer) MutualSet(i, t int) []int {
	n := c.n
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

// Minimal returns the contiguous INN of point i at threshold t: the
// maximal runs of offsets o >= 1 on each side such that every point up to
// i±o is mutually within top-t neighbors of i. The scan on each side is
// linear and stops at the first failure (contiguity assumption of
// Section IV). Members are sorted ascending, excluding i.
func (c *Computer) Minimal(i, t int) []int {
	n := c.n
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

// Binary returns the contiguous INN of point i at threshold t computed
// with Algorithm 5's per-side binary search: the largest offset o on each
// side whose point passes the mutual test is found in O(log t) probes,
// assuming the INN is not segmented. Members are sorted ascending,
// excluding i.
func (c *Computer) Binary(i, t int) []int {
	n := c.n
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

// offsetBound is Algorithm 5's per-offset rank bound: min(3o+9, t). The
// slope-3, intercept-9 slack admits a contiguous group whose members interleave in rank
// order (within a tight group the o-th temporal neighbor can rank behind
// every other member on both sides plus noise), while still rejecting the
// far-away next value cluster the way the paper's Example 2 rejects x3 at
// r = 6.
func offsetBound(o, t int) int {
	b := 3*o + 9
	if b > t {
		b = t
	}
	return b
}

// mutualAt checks the mutual membership of i and the point at offset o in
// direction dir under the per-offset rank bound.
func (c *Computer) mutualAt(i, dir, o, t int) bool {
	j := i + dir*o
	b := offsetBound(o, t)
	return c.InTopK(i, j, b) && c.InTopK(j, i, b)
}

// scanSide walks offsets 1, 2, ... in direction dir until the mutual test
// fails or the series boundary / range limit t is reached; returns the
// extent (number of admitted offsets).
func (c *Computer) scanSide(i, dir, t int) int {
	n := c.n
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

// binarySide finds the extent of the contiguous mutual run on one side in
// O(log extent) probes: a galloping phase doubles the offset until the
// first failure, then a binary search brackets the boundary. Plain binary
// search over [1, t] (Algorithm 5 as printed) can jump across a failing
// interior point and report a segmented neighborhood as one span; probing
// the power-of-two offsets anchors the search to the actual run, so the
// result matches the linear scan except in the rare case of a gap strictly
// between consecutive probe points.
func (c *Computer) binarySide(i, dir, t int) int {
	n := c.n
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
	// Gallop: largest passing power-of-two offset.
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
	// Binary search the boundary in (pass, hi].
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

// rankMemo is a bounded, sharded (query, target) -> rank cache. Probes
// for the same pair recur across the offsetBound radii of the gallop +
// binary search and across overlapping candidate neighborhoods (the
// reverse probe of pair (i, j) is the forward probe of pair (j, i) when
// both ends are candidates), and the rank itself is radius-independent,
// so hit rates are high. Sharding keeps scorer workers from serializing
// on one lock; a shard that reaches its bound is reset rather than
// evicted entry-by-entry, so memory stays bounded with O(1) bookkeeping.
type rankMemo struct {
	shardCap int
	shards   [memoShards]rankShard
}

const memoShards = 64

type rankShard struct {
	mu sync.Mutex
	m  map[uint64]int32
	// hits / misses are observability counters, mutated under mu so the
	// hot path pays no extra atomics; Stats sums across shards.
	hits   int64
	misses int64
}

func newRankMemo(capacity int) *rankMemo {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	sc := (capacity + memoShards - 1) / memoShards
	if sc < 8 {
		sc = 8
	}
	return &rankMemo{shardCap: sc}
}

func (rm *rankMemo) get(key uint64) (int, bool) {
	s := &rm.shards[key&(memoShards-1)]
	s.mu.Lock()
	v, ok := s.m[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return int(v), ok
}

// stats returns the cumulative probe hit/miss counts across shards.
func (rm *rankMemo) stats() (hits, misses int64) {
	for i := range rm.shards {
		s := &rm.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

func (rm *rankMemo) put(key uint64, r int) {
	s := &rm.shards[key&(memoShards-1)]
	s.mu.Lock()
	if s.m == nil || len(s.m) >= rm.shardCap {
		s.m = make(map[uint64]int32, rm.shardCap)
	}
	s.m[key] = int32(r)
	s.mu.Unlock()
}

// collect materializes the sorted member list for extents (left, right)
// around i.
func collect(i, left, right int) []int {
	if left == 0 && right == 0 {
		return nil
	}
	out := make([]int, 0, left+right)
	for o := left; o >= 1; o-- {
		out = append(out, i-o)
	}
	for o := 1; o <= right; o++ {
		out = append(out, i+o)
	}
	return out
}
