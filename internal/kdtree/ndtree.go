package kdtree

import "math"

// ND is a static KD-tree over points of arbitrary (fixed) dimension,
// backing the multivariate extension of the detector (the paper's
// future-work direction: "we plan to study how our techniques apply on
// multi-dimensional time series"). Queries share the 2-D tree's
// (distance, index) tie-break, iterative traversal and buffer reuse.
type ND struct {
	root *ndNode
	n    int
}

type ndNode struct {
	point       []float64
	index       int
	axis        int
	left, right *ndNode
}

// NewND builds an N-dimensional KD-tree over pts (rows are points; all
// rows must share one length). The original position of each point is
// retained and returned by queries.
func NewND(pts [][]float64) *ND {
	if len(pts) == 0 {
		return &ND{}
	}
	items := make([]ndItem, len(pts))
	for i, p := range pts {
		items[i] = ndItem{p: p, i: i}
	}
	return &ND{root: buildND(items, 0, len(pts[0])), n: len(pts)}
}

type ndItem struct {
	p []float64
	i int
}

func buildND(items []ndItem, depth, dim int) *ndNode {
	if len(items) == 0 {
		return nil
	}
	axis := depth % dim
	mid := len(items) / 2
	medianSelectND(items, mid, axis)
	n := &ndNode{point: items[mid].p, index: items[mid].i, axis: axis}
	n.left = buildND(items[:mid], depth+1, dim)
	n.right = buildND(items[mid+1:], depth+1, dim)
	return n
}

// medianSelectND is medianSelect over []float64 rows (see kdtree.go for
// the invariant and pivot rationale).
func medianSelectND(items []ndItem, k, axis int) {
	lo, hi := 0, len(items)-1
	for lo < hi {
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

// Len returns the number of indexed points.
func (t *ND) Len() int { return t.n }

type ndFrame struct {
	n         *ndNode
	planeDist float64
}

// KNN returns the k nearest neighbors of q, sorted by increasing distance
// with index tie-break; skipSelf excludes that original index.
func (t *ND) KNN(q []float64, k int, skipSelf int) []Neighbor {
	return t.KNNInto(q, k, skipSelf, nil)
}

// KNNInto is KNN with a caller-supplied result buffer (reused when its
// capacity suffices); the returned slice aliases buf.
func (t *ND) KNNInto(q []float64, k, skipSelf int, buf []Neighbor) []Neighbor {
	if k <= 0 || t.root == nil {
		return nil
	}
	want := k
	if want > t.n {
		want = t.n
	}
	h := buf[:0]
	if cap(h) < want {
		h = make([]Neighbor, 0, want)
	}
	var stack [maxStack]ndFrame
	top := 0
	cur := t.root
	for cur != nil || top > 0 {
		if cur == nil {
			top--
			f := stack[top]
			if len(h) == k && f.planeDist > h[0].Dist {
				continue
			}
			cur = f.n
		}
		if cur.index != skipSelf {
			d := distN(q, cur.point)
			nb := Neighbor{Index: cur.index, Dist: d}
			if len(h) < k {
				h = append(h, nb)
				siftUp(h, len(h)-1)
			} else if worse(h[0], nb) {
				h[0] = nb
				siftDown(h, 0)
			}
		}
		diff := q[cur.axis] - cur.point[cur.axis]
		near, far := cur.left, cur.right
		if diff > 0 {
			near, far = cur.right, cur.left
		}
		if far != nil {
			stack[top] = ndFrame{n: far, planeDist: math.Abs(diff)}
			top++
		}
		cur = near
	}
	ascendingSort(h)
	return h
}

// Rank is the N-dimensional counterpart of KD.Rank: the number of points
// (excluding skipSelf and tieIndex) ordering strictly ahead of a point at
// distance d with original index tieIndex, allocation-free.
func (t *ND) Rank(q []float64, d float64, tieIndex, skipSelf int) int {
	return t.RankAtMost(q, d, tieIndex, skipSelf, t.n)
}

// RankAtMost is Rank with an early exit at limit; the return value is
// min(rank, limit), and a result strictly below limit is the exact rank.
// See KD.RankAtMost.
func (t *ND) RankAtMost(q []float64, d float64, tieIndex, skipSelf, limit int) int {
	count := 0
	if limit <= 0 {
		return 0
	}
	var stack [maxStack]*ndNode
	top := 0
	cur := t.root
	for cur != nil || top > 0 {
		if cur == nil {
			top--
			cur = stack[top]
		}
		if cur.index != skipSelf && cur.index != tieIndex {
			dd := distN(q, cur.point)
			//cabd:lint-ignore floateq rank counting must mirror the exact (distance, index) tie order of the k-NN engine
			if dd < d || (dd == d && cur.index < tieIndex) {
				count++
				if count >= limit {
					return count
				}
			}
		}
		diff := q[cur.axis] - cur.point[cur.axis]
		near, far := cur.left, cur.right
		if diff > 0 {
			near, far = cur.right, cur.left
		}
		if far != nil && math.Abs(diff) <= d {
			stack[top] = far
			top++
		}
		cur = near
	}
	return count
}

// DistN returns the Euclidean distance between two rows — the exact
// metric ND queries use, exported for rank callers.
func DistN(p, q []float64) float64 { return distN(p, q) }

func distN(p, q []float64) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}
