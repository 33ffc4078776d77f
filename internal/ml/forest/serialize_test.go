package forest

import (
	"math/rand"
	"testing"
)

// trainFixture builds a small deterministic forest over two noisy
// clusters.
func trainFixture(t testing.TB) ([][]float64, *Forest) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var X [][]float64
	var y []int
	for i := 0; i < 60; i++ {
		cls := i % 3
		X = append(X, []float64{
			float64(cls) + 0.3*rng.Float64(),
			float64(cls)*2 + 0.3*rng.Float64(),
		})
		y = append(y, cls)
	}
	f := TrainWeighted(X, y, nil, Config{Trees: 25, NumClasses: 3}, rng)
	if f == nil {
		t.Fatal("Train returned nil")
	}
	return X, f
}

// TestSnapshotNil: a nil forest snapshots to nil.
func TestSnapshotNil(t *testing.T) {
	var f *Forest
	if s := f.Snapshot(); s != nil {
		t.Fatalf("nil forest snapshot = %+v", s)
	}
}

// TestSnapshotPreordersRoot: a snapshot lists each tree in preorder —
// node 0 is the root, every child sits after its parent and is reached
// once — with leaf distributions sized to the class count, and one
// in-bag mask per tree over the training rows.
func TestSnapshotPreordersRoot(t *testing.T) {
	X, f := trainFixture(t)
	s := f.Snapshot()
	if s.NumClasses != 3 || len(s.Trees) != 25 || len(s.InBag) != 25 {
		t.Fatalf("snapshot holds %d classes, %d trees, %d in-bag masks", s.NumClasses, len(s.Trees), len(s.InBag))
	}
	for ti, tr := range s.Trees {
		if len(s.InBag[ti]) != len(X) {
			t.Fatalf("tree %d: in-bag mask over %d rows, trained on %d", ti, len(s.InBag[ti]), len(X))
		}
		reached := make([]int, len(tr.Nodes))
		reached[0] = 1
		for i, nd := range tr.Nodes {
			if nd.Probs != nil {
				if len(nd.Probs) != s.NumClasses || nd.Left != -1 || nd.Right != -1 {
					t.Fatalf("tree %d leaf %d: %+v", ti, i, nd)
				}
				continue
			}
			for _, c := range []int{nd.Left, nd.Right} {
				if c <= i || c >= len(tr.Nodes) {
					t.Fatalf("tree %d node %d: child %d not after its parent", ti, i, c)
				}
				reached[c]++
			}
		}
		for i, r := range reached {
			if r != 1 {
				t.Fatalf("tree %d node %d reached %d times", ti, i, r)
			}
		}
	}
}
