// Package kdtree implements a static KD-tree with k-nearest-neighbor and
// rank queries. The paper's runtime evaluation (Section V-D) uses a
// KD-tree to accelerate neighbor search for the INN computation; this
// package is that substrate. One tree serves both embeddings: 2-D points
// (standardized index, standardized value) of a univariate series, and
// rows that append one standardized value per channel for the
// multivariate extension. Every point carries its original series index
// as payload.
//
// All queries order neighbors by (distance, original index): among
// equidistant points the smaller index ranks first. That tie-break is not
// cosmetic — flat series embed as duplicate points, and the INN mutual-rank
// probes need one deterministic answer to the question "is j among the k
// nearest neighbors of i".
//
// Traversals are iterative (an explicit stack bounded by the balanced
// tree's height) and allocation-free when the caller supplies buffers:
// KNNInto reuses caller storage, and RankAtMost counts in a bare tree
// walk with no candidate list at all.
package kdtree

import "math"

// Point is the coordinate type a Tree indexes: a 2-D point, or a row of
// two or more coordinates. The tree is generic rather than written over
// rows so that the 2-D instantiation compiles to fixed-size arithmetic.
type Point interface{ [2]float64 | []float64 }

// Tree is a static KD-tree over points of type P.
type Tree[P Point] struct {
	items []item[P]
}

type item[P Point] struct {
	p P
	i int
}

// New builds a KD-tree over pts. The original position of each point in
// pts is retained and returned by queries. Building is O(n log n) via
// median quickselect per level (expected linear per level, no full sort).
// Every point needs at least two coordinates, and all points one count;
// New panics otherwise, and above math.MaxInt32 points.
//
// The tree is implicit: one item array, partitioned in place so that the
// node of the span [lo, hi) sits at items[lo+(hi-lo)/2], its left subtree
// is [lo, mid) and its right subtree [mid+1, hi). The root splits on
// coordinate 0 and each level on the next coordinate, wrapping around.
// A build allocates the array and the handle, nothing per point.
func New[P Point](pts []P) *Tree[P] {
	if len(pts) > math.MaxInt32 {
		panic("kdtree: more than math.MaxInt32 points")
	}
	items := make([]item[P], len(pts))
	for i, p := range pts {
		if len(p) < 2 || len(p) != len(pts[0]) {
			panic("kdtree: points need two or more coordinates, the same count each")
		}
		items[i] = item[P]{p: p, i: i}
	}
	build(items, 0)
	return &Tree[P]{items: items}
}

// Len returns the number of indexed points.
func (t *Tree[P]) Len() int { return len(t.items) }

// build arranges items into the implicit layout: the median of the span
// on the given axis moves to the span's middle slot, then each half is
// built on the next axis.
func build[P Point](items []item[P], axis int) {
	for len(items) > 1 {
		mid := len(items) / 2
		medianSelect(items, mid, axis)
		if axis++; axis == len(items[mid].p) {
			axis = 0
		}
		build(items[:mid], axis)
		items = items[mid+1:]
	}
}

// medianSelect partially orders items so that items[k] holds the k-th
// axis-order statistic with no larger element before it and no smaller
// element after it — exactly the invariant the KD split needs. Hoare
// quickselect with a median-of-three pivot: expected O(n), robust against
// the sorted index axis and against duplicate-heavy value axes (flat
// series), both of which are quadratic for naive pivots.
func medianSelect[P Point](items []item[P], k, axis int) {
	lo, hi := 0, len(items)-1
	for lo < hi {
		// Median-of-three of (lo, mid, hi), moved to lo as the pivot.
		mid := int(uint(lo+hi) >> 1)
		if items[mid].p[axis] < items[lo].p[axis] {
			items[mid], items[lo] = items[lo], items[mid]
		}
		if items[hi].p[axis] < items[mid].p[axis] {
			items[hi], items[mid] = items[mid], items[hi]
			if items[mid].p[axis] < items[lo].p[axis] {
				items[mid], items[lo] = items[lo], items[mid]
			}
		}
		items[lo], items[mid] = items[mid], items[lo]
		p := items[lo].p[axis]
		// Hoare partition: [lo..j] <= p <= [j+1..hi] on exit.
		i, j := lo-1, hi+1
		for {
			for {
				j--
				if items[j].p[axis] <= p {
					break
				}
			}
			for {
				i++
				if items[i].p[axis] >= p {
					break
				}
			}
			if i >= j {
				break
			}
			items[i], items[j] = items[j], items[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
}

// Neighbor is one k-NN query result.
type Neighbor struct {
	Index int     // original position in the input slice
	Dist  float64 // Euclidean distance to the query point
}

// worse reports whether a ranks strictly after b in the documented
// (distance, index) neighbor order.
func worse(a, b Neighbor) bool {
	//cabd:lint-ignore floateq the documented (distance, index) order needs exact distance ties to break on index deterministically
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Index > b.Index
}

// The candidate heap is a plain slice ordered as a max-heap under worse
// (worst candidate on top), manipulated with inlined sift operations so no
// interface boxing or allocation happens per push.

func siftUp(h []Neighbor, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []Neighbor, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && worse(h[l], h[m]) {
			m = l
		}
		if r < n && worse(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// ascendingSort heap-sorts h (a worse-ordered max-heap) into ascending
// (distance, index) order in place.
func ascendingSort(h []Neighbor) {
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
}

// maxSpans bounds a walk's span stack. Pending spans lie at distinct
// depths below the root, and New admits at most math.MaxInt32 points, so
// at most 30 are ever pending.
const maxSpans = 32

// span is a pending subtree of the implicit layout: items[lo:hi], whose
// node splits on coordinate axis. Walks carry the axis instead of the
// depth so that moving down a level is an increment and a compare, not
// a division by the dimension.
type span struct {
	lo, hi, axis int32
}

func newSpan(lo, hi, axis int) span { return span{int32(lo), int32(hi), int32(axis)} }

func (s span) unpack() (lo, hi, axis int) { return int(s.lo), int(s.hi), int(s.axis) }

// knnSpan is a pending far subtree of a k-NN walk, with the distance from
// the query to the split plane that separates it.
type knnSpan struct {
	span
	planeDist float64
}

// KNNInto returns the k nearest neighbors of q, sorted by increasing
// distance with index tie-break. When skipSelf >= 0, the point with that
// original index is excluded — queries for a point already in the tree
// pass its own index. If fewer than k points are available the result is
// shorter. q has the indexed points' coordinate count.
//
// buf's storage is reused when its capacity suffices, so steady-state
// queries allocate nothing; the returned slice aliases buf.
//
//cabd:hotpath
func (t *Tree[P]) KNNInto(q P, k, skipSelf int, buf []Neighbor) []Neighbor {
	items := t.items
	if k <= 0 || len(items) == 0 {
		return nil
	}
	want := k
	if want > len(items) {
		want = len(items)
	}
	h := buf[:0]
	if cap(h) < want {
		h = make([]Neighbor, 0, want)
	}
	var stack [maxSpans]knnSpan
	top := 0
	lo, hi, axis := 0, len(items), 0
	for {
		for lo >= hi {
			if top == 0 {
				ascendingSort(h)
				return h
			}
			top--
			f := &stack[top]
			// Tie-aware pruning: descend the far side unless the split
			// plane is strictly farther than the current worst neighbor —
			// an equal-distance point beyond it could still win on index.
			if len(h) == k && f.planeDist > h[0].Dist {
				continue
			}
			lo, hi, axis = f.unpack()
		}
		mid := int(uint(lo+hi) >> 1)
		it := &items[mid]
		if it.i != skipSelf {
			nb := Neighbor{Index: it.i, Dist: dist(q, it.p)}
			if len(h) < k {
				h = append(h, nb)
				siftUp(h, len(h)-1)
			} else if worse(h[0], nb) {
				// Tie-aware admission: replace the worst candidate when
				// the new point wins on (distance, index), not only on
				// strict distance.
				h[0] = nb
				siftDown(h, 0)
			}
		}
		diff := q[axis] - it.p[axis]
		if axis++; axis == len(q) {
			axis = 0
		}
		nlo, nhi, flo, fhi := children(lo, mid, hi, diff)
		if flo < fhi {
			stack[top] = knnSpan{newSpan(flo, fhi, axis), math.Abs(diff)}
			top++
		}
		lo, hi = nlo, nhi
	}
}

// RankAtMost returns min(rank, limit), where rank is the number of
// indexed points (excluding skipSelf and the ranked point itself) that
// order strictly ahead of a point at distance d with original index
// tieIndex under the (distance, index) neighbor order of query q. For a
// point j in the tree with d = Dist(q_i, p_j), tieIndex = j and
// skipSelf = i, j is among the k nearest neighbors of i iff the rank is
// below k; limit = Len() returns the exact rank. The walk counts in
// place — no heap, no allocation.
//
// The walk stops as soon as the count reaches limit: a top-k membership
// probe only needs to distinguish rank < k from rank >= k, and aborting
// at k bounds the work of a failing probe by the k points it finds
// instead of the full ball of radius d. When the returned value is
// strictly below limit the walk ran to completion and the result is the
// exact rank. The near child is visited before the far child so the
// count fills from the dense side out and the exit triggers early.
//
//cabd:hotpath
func (t *Tree[P]) RankAtMost(q P, d float64, tieIndex, skipSelf, limit int) int {
	if limit <= 0 {
		return 0
	}
	items := t.items
	count := 0
	var stack [maxSpans]span
	top := 0
	lo, hi, axis := 0, len(items), 0
	for {
		if lo >= hi {
			if top == 0 {
				return count
			}
			top--
			lo, hi, axis = stack[top].unpack()
		}
		mid := int(uint(lo+hi) >> 1)
		it := &items[mid]
		if it.i != skipSelf && it.i != tieIndex {
			dd := dist(q, it.p)
			//cabd:lint-ignore floateq rank counting must mirror the exact (distance, index) tie order of the k-NN engine
			if dd < d || (dd == d && it.i < tieIndex) {
				count++
				if count >= limit {
					return count
				}
			}
		}
		diff := q[axis] - it.p[axis]
		if axis++; axis == len(q) {
			axis = 0
		}
		nlo, nhi, flo, fhi := children(lo, mid, hi, diff)
		// A far-side point is at least |diff| away; it can only tie or
		// beat distance d when |diff| <= d.
		if flo < fhi && math.Abs(diff) <= d {
			stack[top] = newSpan(flo, fhi, axis)
			top++
		}
		lo, hi = nlo, nhi
	}
}

// children splits the span [lo, hi) around its node at mid into the side
// of the split plane the query lies on and the other side; diff is the
// query's offset from the plane, and a query on the plane goes left.
func children(lo, mid, hi int, diff float64) (nearLo, nearHi, farLo, farHi int) {
	if diff > 0 {
		return mid + 1, hi, lo, mid
	}
	return lo, mid, mid + 1, hi
}

// Dist returns the Euclidean distance between two points of one
// coordinate count — the exact metric every query in this package uses,
// exported so rank callers compute bit-identical thresholds.
func Dist[P Point](p, q P) float64 { return dist(p, q) }

// dist sums the first two squared differences in one expression and
// adds the rest one by one: the 2-D instantiation compiles to the fixed
// dx*dx + dy*dy with the loop gone, and a running sum from zero gives
// the same bits because its first step, 0 + d0*d0, is exact.
func dist[P Point](p, q P) float64 {
	d0 := p[0] - q[0]
	d1 := p[1] - q[1]
	s := d0*d0 + d1*d1
	for i := 2; i < len(p); i++ {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}
