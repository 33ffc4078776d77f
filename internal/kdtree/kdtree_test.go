package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteKNN is the reference implementation used for differential testing.
func bruteKNN(pts [][2]float64, q [2]float64, k, skipSelf int) []Neighbor {
	var all []Neighbor
	for i, p := range pts {
		if i == skipSelf {
			continue
		}
		all = append(all, Neighbor{Index: i, Dist: dist(q, p)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func randomPoints(rng *rand.Rand, n int) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
	}
	return pts
}

// gridPoints draws coordinates from a tiny integer grid so that duplicate
// points and exact distance ties are the norm, not the exception — the
// embedding of a flat series produces exactly this.
func gridPoints(rng *rand.Rand, n int) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{float64(rng.Intn(4)), float64(rng.Intn(4))}
	}
	return pts
}

// bruteRank counts the points ordering strictly ahead of index j under
// the (distance, index) neighbor order of query q.
func bruteRank(pts [][2]float64, q [2]float64, j, skip int) int {
	dj := dist(q, pts[j])
	count := 0
	for m, p := range pts {
		if m == skip || m == j {
			continue
		}
		d := dist(q, p)
		if d < dj || (d == dj && m < j) {
			count++
		}
	}
	return count
}

func TestKNNSimple(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 0}, {2, 0}, {10, 0}}
	tr := New(pts)
	nn := tr.KNN([2]float64{0.1, 0}, 2, -1)
	if len(nn) != 2 || nn[0].Index != 0 || nn[1].Index != 1 {
		t.Errorf("KNN = %+v", nn)
	}
}

func TestKNNSkipSelf(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 0}, {2, 0}}
	tr := New(pts)
	nn := tr.KNN(pts[0], 1, 0)
	if len(nn) != 1 || nn[0].Index != 1 {
		t.Errorf("skip-self KNN = %+v", nn)
	}
}

func TestKNNFewerThanK(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 1}}
	tr := New(pts)
	nn := tr.KNN([2]float64{0, 0}, 10, -1)
	if len(nn) != 2 {
		t.Errorf("expected all points, got %d", len(nn))
	}
	if got := tr.KNN([2]float64{0, 0}, 0, -1); got != nil {
		t.Errorf("k=0 should return nil, got %v", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 {
		t.Error("empty tree length")
	}
	if got := tr.KNN([2]float64{0, 0}, 3, -1); got != nil {
		t.Errorf("empty tree KNN = %v", got)
	}
	if got := tr.Within([2]float64{0, 0}, 5, -1); got != nil {
		t.Errorf("empty tree Within = %v", got)
	}
}

// Differential test: KD-tree KNN must exactly match brute force —
// including indices, which the deterministic (distance, index) tie-break
// makes exact — over both generic random points and duplicate-heavy grid
// points where every query is riddled with distance ties.
func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(200)
		var pts [][2]float64
		if trial%2 == 0 {
			pts = randomPoints(rng, n)
		} else {
			pts = gridPoints(rng, n)
		}
		tr := New(pts)
		var buf []Neighbor
		for qi := 0; qi < 10; qi++ {
			q := [2]float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
			if rng.Intn(2) == 0 {
				q = pts[rng.Intn(n)] // query on an indexed point: max ties
			}
			k := 1 + rng.Intn(12)
			skip := -1
			if rng.Intn(2) == 0 && n > 1 {
				skip = rng.Intn(n)
			}
			got := tr.KNNInto(q, k, skip, buf)
			buf = got
			want := bruteKNN(pts, q, k, skip)
			if len(got) != len(want) {
				t.Fatalf("trial %d: len %d vs %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
					t.Fatalf("trial %d: result[%d] = %+v, want %+v (pts=%v q=%v k=%d skip=%d)",
						trial, i, got[i], want[i], pts, q, k, skip)
				}
			}
		}
	}
}

// Regression for the arrival-order tie bug: with duplicate points, strict
// `d < worst` admission could exclude an equal-distance neighbor with a
// smaller index depending on tree traversal order. The documented
// tie-break says the smaller index wins, always.
func TestKNNTieBreakDuplicates(t *testing.T) {
	// Several duplicates of the query point plus equidistant mirrors
	// across the splitting plane, in every insertion order.
	base := [][2]float64{{1, 1}, {1, 1}, {1, 1}, {0, 1}, {2, 1}, {1, 0}, {1, 2}, {5, 5}}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(base))
		pts := make([][2]float64, len(base))
		for i, p := range perm {
			pts[i] = base[p]
		}
		tr := New(pts)
		for k := 1; k <= len(pts); k++ {
			got := tr.KNN([2]float64{1, 1}, k, -1)
			want := bruteKNN(pts, [2]float64{1, 1}, k, -1)
			for i := range got {
				if got[i].Index != want[i].Index {
					t.Fatalf("trial %d k=%d: index[%d] = %d, want %d (pts=%v)",
						trial, k, i, got[i].Index, want[i].Index, pts)
				}
			}
		}
	}
}

// Flat-series regression: all points identical — any k must select the k
// smallest indices.
func TestKNNAllDuplicates(t *testing.T) {
	pts := make([][2]float64, 40)
	for i := range pts {
		pts[i] = [2]float64{3, 3}
	}
	tr := New(pts)
	for _, k := range []int{1, 5, 17, 40} {
		nn := tr.KNN([2]float64{3, 3}, k, 7)
		if len(nn) != min(k, 39) {
			t.Fatalf("k=%d: got %d results", k, len(nn))
		}
		wantIdx := 0
		for i, nb := range nn {
			if wantIdx == 7 {
				wantIdx++ // skipSelf
			}
			if nb.Index != wantIdx || nb.Dist != 0 {
				t.Fatalf("k=%d: result[%d] = %+v, want index %d dist 0", k, i, nb, wantIdx)
			}
			wantIdx++
		}
	}
}

// Rank must agree with the brute-force (distance, index) rank for every
// indexed point, so that rank < k is exactly KNN membership.
func TestRankMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(120)
		var pts [][2]float64
		if trial%2 == 0 {
			pts = randomPoints(rng, n)
		} else {
			pts = gridPoints(rng, n)
		}
		tr := New(pts)
		for probe := 0; probe < 20; probe++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				continue
			}
			got := tr.Rank(pts[i], dist(pts[i], pts[j]), j, i)
			want := bruteRank(pts, pts[i], j, i)
			if got != want {
				t.Fatalf("trial %d: Rank(%d,%d) = %d, want %d (pts=%v)",
					trial, i, j, got, want, pts)
			}
			// The bounded walk answers min(rank, limit) for any limit.
			for _, limit := range []int{0, 1, got, got + 1, (i + j) % (n + 1)} {
				if r := tr.RankAtMost(pts[i], dist(pts[i], pts[j]), j, i, limit); r != min(want, limit) {
					t.Fatalf("trial %d: RankAtMost(%d,%d,%d) = %d, want %d",
						trial, i, j, limit, r, min(want, limit))
				}
			}
			// rank < k  <=>  j in KNN(i, k), for k around the rank.
			for _, k := range []int{got, got + 1} {
				if k == 0 {
					continue
				}
				inKNN := false
				for _, nb := range tr.KNN(pts[i], k, i) {
					if nb.Index == j {
						inKNN = true
					}
				}
				if inKNN != (got < k) {
					t.Fatalf("trial %d: rank %d vs KNN membership at k=%d disagree", trial, got, k)
				}
			}
		}
	}
}

func TestCountWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(150)
		var pts [][2]float64
		if trial%2 == 0 {
			pts = randomPoints(rng, n)
		} else {
			pts = gridPoints(rng, n)
		}
		tr := New(pts)
		q := pts[rng.Intn(n)]
		r := rng.Float64() * 6
		skip := -1
		if rng.Intn(2) == 0 {
			skip = rng.Intn(n)
		}
		want := 0
		for i, p := range pts {
			if i != skip && dist(q, p) <= r {
				want++
			}
		}
		if got := tr.CountWithin(q, r, skip); got != want {
			t.Fatalf("trial %d: CountWithin = %d, want %d", trial, got, want)
		}
		if got := len(tr.Within(q, r, skip)); got != want {
			t.Fatalf("trial %d: Within len = %d, want %d", trial, got, want)
		}
	}
}

func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(150)
		pts := randomPoints(rng, n)
		tr := New(pts)
		q := [2]float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		r := rng.Float64() * 15
		got := tr.Within(q, r, -1)
		want := 0
		for _, p := range pts {
			if dist(q, p) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: Within found %d, brute %d", trial, len(got), want)
		}
		for _, nb := range got {
			if nb.Dist > r {
				t.Fatalf("Within returned point beyond radius: %v > %v", nb.Dist, r)
			}
		}
	}
}

// TestTinyAndDuplicateMatchBruteForce runs the KNN, Rank and Within
// differentials over every query, k, limit and radius on the degenerate
// trees: zero to three points, and point sets that are one point
// repeated (the embedding of a flat series).
func TestTinyAndDuplicateMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sets [][][2]float64
	for n := 0; n <= 3; n++ {
		sets = append(sets, randomPoints(rng, n), gridPoints(rng, n))
	}
	for _, n := range []int{1, 2, 3, 8, 9, 40, 200} {
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{-1.5, 0.25}
		}
		sets = append(sets, pts)
	}
	for si, pts := range sets {
		n := len(pts)
		tr := New(pts)
		if tr.Len() != n {
			t.Fatalf("set %d: Len %d, want %d", si, tr.Len(), n)
		}
		// Sets small enough are probed exhaustively; the larger duplicate
		// sets at the boundary values of every argument.
		queries := append([][2]float64{{0, 0}, {-1.5, 0.25}}, pts...)
		skips, ks, limits := seq(-1, n-1), seq(0, n+1), seq(0, n)
		if n > 16 {
			queries = queries[:3]
			skips = []int{-1, 0, n / 2, n - 1}
			ks = []int{0, 1, 8, n / 2, n - 1, n, n + 1}
			limits = []int{0, 1, 8, n / 2, n - 1, n}
		}
		for _, q := range queries {
			for _, skip := range skips {
				for _, k := range ks {
					got := tr.KNN(q, k, skip)
					var want []Neighbor
					if k > 0 {
						want = bruteKNN(pts, q, k, skip)
					}
					if !equalNeighbors(got, want) {
						t.Fatalf("set %d q=%v k=%d skip=%d: KNN %v, want %v", si, q, k, skip, got, want)
					}
				}
				for _, r := range []float64{0, 0.5, 2, math.Inf(1)} {
					var want []Neighbor
					for i, p := range pts {
						if i != skip && dist(q, p) <= r {
							want = append(want, Neighbor{Index: i, Dist: dist(q, p)})
						}
					}
					got := tr.Within(q, r, skip)
					sort.Slice(got, func(a, b int) bool { return got[a].Index < got[b].Index })
					if !equalNeighbors(got, want) || tr.CountWithin(q, r, skip) != len(want) {
						t.Fatalf("set %d q=%v r=%v skip=%d: Within %v, want %v", si, q, r, skip, got, want)
					}
				}
			}
		}
		for _, i := range skips[1:] {
			for _, j := range skips[1:] {
				if i == j {
					continue
				}
				want := bruteRank(pts, pts[i], j, i)
				for _, limit := range limits {
					if got := tr.RankAtMost(pts[i], dist(pts[i], pts[j]), j, i, limit); got != min(want, limit) {
						t.Fatalf("set %d: RankAtMost(%d,%d,%d) = %d, want %d", si, i, j, limit, got, min(want, limit))
					}
				}
			}
		}
	}
}

// seq returns lo, lo+1, ..., hi.
func seq(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func equalNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNewAllocsConstant: a build allocates the item array and the handle,
// nothing per point.
func TestNewAllocsConstant(t *testing.T) {
	for _, n := range []int{200, 5000, 50000} {
		pts := randomPoints(rand.New(rand.NewSource(int64(n))), n)
		if allocs := testing.AllocsPerRun(3, func() { New(pts) }); allocs != 2 {
			t.Errorf("n=%d: New made %v allocations, want 2", n, allocs)
		}
	}
}

func TestKNNSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(rng, 100)
	tr := New(pts)
	nn := tr.KNN([2]float64{0, 0}, 20, -1)
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatalf("results not sorted: %v after %v", nn[i].Dist, nn[i-1].Dist)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := [][2]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	tr := New(pts)
	nn := tr.KNN([2]float64{1, 1}, 3, -1)
	if len(nn) != 3 {
		t.Fatalf("expected 3 results, got %d", len(nn))
	}
	for _, x := range nn[:3] {
		if x.Dist != 0 {
			t.Errorf("duplicate distance = %v", x.Dist)
		}
	}
}

func BenchmarkKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 20000)
	tr := New(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.KNN(pts[i%len(pts)], 10, i%len(pts))
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(pts)
	}
}

// BenchmarkRankAtMost times the INN membership probe: a bounded rank walk
// from each point to a near neighbor at the default k = 12 bound.
func BenchmarkRankAtMost(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][2]float64, 2000)
	for i := range pts {
		pts[i] = [2]float64{float64(i) / 577, rng.NormFloat64()}
	}
	tr := New(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(pts)
		j := (q + 1 + i%7) % len(pts)
		rankSink += tr.RankAtMost(pts[q], dist(pts[q], pts[j]), j, q, 12)
	}
}

// rankSink keeps the benchmarked walks live.
var rankSink int
