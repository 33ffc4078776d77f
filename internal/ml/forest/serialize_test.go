package forest

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// trainFixture builds a small deterministic forest over two noisy
// clusters.
func trainFixture(t *testing.T) ([][]float64, *Forest) {
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
	f := Train(X, y, Config{Trees: 25, NumClasses: 3}, rng)
	if f == nil {
		t.Fatal("Train returned nil")
	}
	return X, f
}

// TestSnapshotRoundTrip: a forest restored from its JSON-encoded
// snapshot predicts bit-identically — full ensemble and out-of-bag.
func TestSnapshotRoundTrip(t *testing.T) {
	X, f := trainFixture(t)

	buf, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	g, err := FromSnapshot(&snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	if g.NumClasses() != f.NumClasses() {
		t.Fatalf("num classes %d != %d", g.NumClasses(), f.NumClasses())
	}
	for i, x := range X {
		want, got := f.PredictProba(x), g.PredictProba(x)
		for c := range want {
			//cabd:lint-ignore floateq round-trip must be bit-identical: both ensembles average the same leaf distributions
			if want[c] != got[c] {
				t.Fatalf("row %d class %d: proba %v != %v", i, c, got[c], want[c])
			}
		}
		wantOOB, gotOOB := f.PredictProbaOOB(i, x), g.PredictProbaOOB(i, x)
		for c := range wantOOB {
			//cabd:lint-ignore floateq round-trip must be bit-identical: in-bag membership is preserved verbatim
			if wantOOB[c] != gotOOB[c] {
				t.Fatalf("row %d class %d: OOB proba %v != %v", i, c, gotOOB[c], wantOOB[c])
			}
		}
	}
}

// TestSnapshotNil: nil forests and snapshots round-trip to nil.
func TestSnapshotNil(t *testing.T) {
	var f *Forest
	if s := f.Snapshot(); s != nil {
		t.Fatalf("nil forest snapshot = %+v", s)
	}
	g, err := FromSnapshot(nil)
	if err != nil || g != nil {
		t.Fatalf("FromSnapshot(nil) = %v, %v", g, err)
	}
}

// TestSnapshotValidation: corrupted checkpoints fail loudly.
func TestSnapshotValidation(t *testing.T) {
	leaf := FlatNode{Left: -1, Right: -1, Probs: []float64{1, 0}}
	cases := map[string]*Snapshot{
		"bad classes": {NumClasses: 0},
		"in-bag mismatch": {NumClasses: 2,
			Trees: []TreeSnapshot{{Nodes: []FlatNode{leaf}}},
			InBag: [][]bool{{true}, {false}}},
		"in-bag mask lengths differ": {NumClasses: 2,
			Trees: []TreeSnapshot{{Nodes: []FlatNode{leaf}}, {Nodes: []FlatNode{leaf}}},
			InBag: [][]bool{{true, false}, {false}}},
		"child out of range": {NumClasses: 2,
			Trees: []TreeSnapshot{{Nodes: []FlatNode{{Feature: 0, Left: 1, Right: 5}, leaf}}}},
		"child before parent (cycle)": {NumClasses: 2,
			Trees: []TreeSnapshot{{Nodes: []FlatNode{{Left: -1, Right: -1}, {Feature: 0, Left: 0, Right: 0}}}}},
		"leaf prob size": {NumClasses: 3,
			Trees: []TreeSnapshot{{Nodes: []FlatNode{leaf}}}},
		"empty tree": {NumClasses: 2,
			Trees: []TreeSnapshot{{}}},
	}
	for name, snap := range cases {
		if _, err := FromSnapshot(snap); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestSnapshotPreordersRoot: node 0 is the root; a single-leaf tree is
// legal.
func TestSnapshotPreordersRoot(t *testing.T) {
	snap := &Snapshot{NumClasses: 2, Trees: []TreeSnapshot{
		{Nodes: []FlatNode{{Left: -1, Right: -1, Probs: []float64{0.25, 0.75}}}},
	}}
	f, err := FromSnapshot(snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	p := f.PredictProba([]float64{math.Pi})
	if p[1] <= p[0] {
		t.Fatalf("leaf distribution lost: %v", p)
	}
}
