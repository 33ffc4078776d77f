package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteKNN is the reference implementation used for differential testing.
func bruteKNN[P Point](pts []P, q P, k, skipSelf int) []Neighbor {
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

// randomRows draws n rows of dim coordinates.
func randomRows(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64() * 5
		}
		pts[i] = row
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
	nn := tr.KNNInto([2]float64{0.1, 0}, 2, -1, nil)
	if len(nn) != 2 || nn[0].Index != 0 || nn[1].Index != 1 {
		t.Errorf("KNN = %+v", nn)
	}
}

func TestKNNSkipSelf(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 0}, {2, 0}}
	tr := New(pts)
	nn := tr.KNNInto(pts[0], 1, 0, nil)
	if len(nn) != 1 || nn[0].Index != 1 {
		t.Errorf("skip-self KNN = %+v", nn)
	}
}

func TestKNNFewerThanK(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 1}}
	tr := New(pts)
	nn := tr.KNNInto([2]float64{0, 0}, 10, -1, nil)
	if len(nn) != 2 {
		t.Errorf("expected all points, got %d", len(nn))
	}
	if got := tr.KNNInto([2]float64{0, 0}, 0, -1, nil); got != nil {
		t.Errorf("k=0 should return nil, got %v", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New[[2]float64](nil)
	if tr.Len() != 0 {
		t.Error("empty tree length")
	}
	if got := tr.KNNInto([2]float64{0, 0}, 3, -1, nil); got != nil {
		t.Errorf("empty tree KNN = %v", got)
	}
	if got := tr.RankAtMost([2]float64{0, 0}, 5, 0, -1, tr.Len()); got != 0 {
		t.Errorf("empty tree Rank = %d", got)
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
			got := tr.KNNInto([2]float64{1, 1}, k, -1, nil)
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
		nn := tr.KNNInto([2]float64{3, 3}, k, 7, nil)
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
			got := tr.RankAtMost(pts[i], dist(pts[i], pts[j]), j, i, tr.Len())
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
				for _, nb := range tr.KNNInto(pts[i], k, i, nil) {
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

// TestTinyAndDuplicateMatchBruteForce runs the KNN and Rank
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
					got := tr.KNNInto(q, k, skip, nil)
					var want []Neighbor
					if k > 0 {
						want = bruteKNN(pts, q, k, skip)
					}
					if !equalNeighbors(got, want) {
						t.Fatalf("set %d q=%v k=%d skip=%d: KNN %v, want %v", si, q, k, skip, got, want)
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
// nothing per point, for either point type.
func TestNewAllocsConstant(t *testing.T) {
	for _, n := range []int{200, 5000, 50000} {
		pts := randomPoints(rand.New(rand.NewSource(int64(n))), n)
		if allocs := testing.AllocsPerRun(3, func() { New(pts) }); allocs != 2 {
			t.Errorf("n=%d: New made %v allocations, want 2", n, allocs)
		}
		rows := randomRows(rand.New(rand.NewSource(int64(n))), n, 4)
		if allocs := testing.AllocsPerRun(3, func() { New(rows) }); allocs != 2 {
			t.Errorf("n=%d: New over rows made %v allocations, want 2", n, allocs)
		}
	}
}

// TestNewRejectsShortRows: a row needs two coordinates (the distance
// sums the first two before the rest), and every row the same count.
func TestNewRejectsShortRows(t *testing.T) {
	for name, rows := range map[string][][]float64{
		"one coordinate": {{1}, {2}},
		"empty row":      {{}},
		"ragged":         {{1, 2, 3}, {1, 2}},
		"ragged longer":  {{1, 2}, {1, 2, 3}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New accepted %v", name, rows)
				}
			}()
			New(rows)
		}()
	}
}

func TestKNNSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randomPoints(rng, 100)
	tr := New(pts)
	nn := tr.KNNInto([2]float64{0, 0}, 20, -1, nil)
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatalf("results not sorted: %v after %v", nn[i].Dist, nn[i-1].Dist)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := [][2]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	tr := New(pts)
	nn := tr.KNNInto([2]float64{1, 1}, 3, -1, nil)
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
		tr.KNNInto(pts[i%len(pts)], 10, i%len(pts), nil)
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

// TestNDMatchesBruteForce is the KNN differential over rows of two to
// eight coordinates.
func TestNDMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{2, 3, 5, 8} {
		for trial := 0; trial < 15; trial++ {
			n := 1 + rng.Intn(150)
			pts := randomRows(rng, n, dim)
			tree := New(pts)
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.NormFloat64() * 5
			}
			k := 1 + rng.Intn(10)
			skip := -1
			if rng.Intn(2) == 0 {
				skip = rng.Intn(n)
			}
			got := tree.KNNInto(q, k, skip, nil)
			want := bruteKNN(pts, q, k, skip)
			if len(got) != len(want) {
				t.Fatalf("dim %d: len %d vs %d", dim, len(got), len(want))
			}
			for i := range got {
				if got[i].Index != want[i].Index || math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
					t.Fatalf("dim %d: result[%d] = %+v, want %+v", dim, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNDTiesAndRank exercises duplicate-heavy grids: exact index order
// under ties, and Rank agreement with brute force.
func TestNDTiesAndRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(80)
		dim := 2 + rng.Intn(2)
		pts := make([][]float64, n)
		for i := range pts {
			row := make([]float64, dim)
			for j := range row {
				row[j] = float64(rng.Intn(3))
			}
			pts[i] = row
		}
		tree := New(pts)
		i := rng.Intn(n)
		k := 1 + rng.Intn(8)
		got := tree.KNNInto(pts[i], k, i, nil)
		want := bruteKNN(pts, pts[i], k, i)
		for x := range got {
			if got[x].Index != want[x].Index {
				t.Fatalf("trial %d: tie order index[%d] = %d, want %d",
					trial, x, got[x].Index, want[x].Index)
			}
		}
		j := rng.Intn(n)
		if j == i {
			continue
		}
		dj := dist(pts[i], pts[j])
		wantRank := 0
		for m, p := range pts {
			if m == i || m == j {
				continue
			}
			if d := dist(pts[i], p); d < dj || (d == dj && m < j) {
				wantRank++
			}
		}
		if gotRank := tree.RankAtMost(pts[i], dj, j, i, tree.Len()); gotRank != wantRank {
			t.Fatalf("trial %d: ND Rank = %d, want %d", trial, gotRank, wantRank)
		}
	}
}

// TestNDEmptyAndDegenerate: an empty tree of rows answers nothing, and a
// one-row tree answers its row.
func TestNDEmptyAndDegenerate(t *testing.T) {
	empty := New[[]float64](nil)
	if empty.Len() != 0 || empty.KNNInto([]float64{1}, 3, -1, nil) != nil {
		t.Error("empty tree of rows misbehaves")
	}
	one := New([][]float64{{1, 2, 3}})
	if one.Len() != 1 {
		t.Errorf("Len = %d", one.Len())
	}
	if got := one.KNNInto([]float64{0, 0, 0}, 5, -1, nil); len(got) != 1 || got[0].Index != 0 {
		t.Errorf("singleton KNN = %v", got)
	}
}

// BenchmarkNDKNN times a 10-NN query over 10,000 rows of 4 coordinates.
func BenchmarkNDKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 10000)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	tree := New(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNNInto(pts[i%len(pts)], 10, i%len(pts), nil)
	}
}
