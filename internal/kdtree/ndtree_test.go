package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func bruteKNNND(pts [][]float64, q []float64, k, skip int) []Neighbor {
	var all []Neighbor
	for i, p := range pts {
		if i == skip {
			continue
		}
		all = append(all, Neighbor{Index: i, Dist: distN(q, p)})
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

func TestNDMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 2, 3, 5, 8} {
		for trial := 0; trial < 15; trial++ {
			n := 1 + rng.Intn(150)
			pts := make([][]float64, n)
			for i := range pts {
				row := make([]float64, dim)
				for j := range row {
					row[j] = rng.NormFloat64() * 5
				}
				pts[i] = row
			}
			tree := NewND(pts)
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.NormFloat64() * 5
			}
			k := 1 + rng.Intn(10)
			skip := -1
			if rng.Intn(2) == 0 {
				skip = rng.Intn(n)
			}
			got := tree.KNN(q, k, skip)
			want := bruteKNNND(pts, q, k, skip)
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
		dim := 1 + rng.Intn(3)
		pts := make([][]float64, n)
		for i := range pts {
			row := make([]float64, dim)
			for j := range row {
				row[j] = float64(rng.Intn(3))
			}
			pts[i] = row
		}
		tree := NewND(pts)
		i := rng.Intn(n)
		k := 1 + rng.Intn(8)
		got := tree.KNN(pts[i], k, i)
		want := bruteKNNND(pts, pts[i], k, i)
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
		dj := distN(pts[i], pts[j])
		wantRank := 0
		for m, p := range pts {
			if m == i || m == j {
				continue
			}
			if d := distN(pts[i], p); d < dj || (d == dj && m < j) {
				wantRank++
			}
		}
		if gotRank := tree.Rank(pts[i], dj, j, i); gotRank != wantRank {
			t.Fatalf("trial %d: ND Rank = %d, want %d", trial, gotRank, wantRank)
		}
	}
}

func TestNDEmptyAndDegenerate(t *testing.T) {
	empty := NewND(nil)
	if empty.Len() != 0 || empty.KNN([]float64{1}, 3, -1) != nil {
		t.Error("empty ND tree misbehaves")
	}
	one := NewND([][]float64{{1, 2, 3}})
	if one.Len() != 1 {
		t.Errorf("Len = %d", one.Len())
	}
	if got := one.KNN([]float64{0, 0, 0}, 5, -1); len(got) != 1 || got[0].Index != 0 {
		t.Errorf("singleton KNN = %v", got)
	}
}

func BenchmarkNDKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, 10000)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	tree := NewND(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNN(pts[i%len(pts)], 10, i%len(pts))
	}
}
