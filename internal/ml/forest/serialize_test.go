package forest

import (
	"encoding/json"
	"math"
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
		// A node reached twice used to decode by copying every path below
		// it: the 13-node chain grew to 8,191 nodes, a 19-node one to
		// 524,287 in half a second.
		"shared child, 13 nodes": sharedChildSnapshot(13),
		"shared child, 19 nodes": sharedChildSnapshot(19),
		"diamond": {NumClasses: 2, Trees: []TreeSnapshot{{Nodes: []FlatNode{
			{Feature: 0, Left: 1, Right: 2}, {Feature: 0, Left: 3, Right: 4}, {Feature: 1, Left: 3, Right: 4}, leaf, leaf}}}},
		// A negative split feature decoded, then panicked the first
		// prediction.
		"negative feature": {NumClasses: 2, Trees: []TreeSnapshot{{Nodes: []FlatNode{
			{Feature: -1, Left: 1, Right: 2}, leaf, leaf}}}},
		// Without trees, num_classes alone sized every prediction buffer.
		"no trees": {NumClasses: 1 << 40},
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

// sharedChildSnapshot is a chain of n-1 split nodes whose two children
// are both the next node, ending in a leaf: a DAG whose every path the
// decoder used to copy, 2^n - 1 nodes from n.
func sharedChildSnapshot(n int) *Snapshot {
	nodes := make([]FlatNode, n)
	for k := 0; k < n-1; k++ {
		nodes[k] = FlatNode{Feature: 0, Left: k + 1, Right: k + 1}
	}
	nodes[n-1] = FlatNode{Left: -1, Right: -1, Probs: []float64{1, 0}}
	return &Snapshot{NumClasses: 2, Trees: []TreeSnapshot{{Nodes: nodes}}}
}

// FuzzFromSnapshot decodes arbitrary JSON as a model checkpoint. A
// snapshot that decodes must be no larger than its input and must then
// predict, full and out-of-bag, without panicking on rows as wide as its
// largest split feature (one row per in-bag mask entry, as the forest
// was trained on).
func FuzzFromSnapshot(f *testing.F) {
	_, fr := trainFixture(f)
	ckpt, err := json.Marshal(fr.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	// A shared child, and split features past the rows' width up to MaxInt.
	seeds := []*Snapshot{sharedChildSnapshot(5)}
	for _, feature := range []int{7, math.MaxInt, math.MaxInt / 3} {
		seeds = append(seeds, &Snapshot{NumClasses: 2, Trees: []TreeSnapshot{{Nodes: []FlatNode{
			{Feature: feature, Threshold: 0.5, Left: 1, Right: 2},
			{Left: -1, Right: -1, Probs: []float64{1, 0}},
			{Left: -1, Right: -1, Probs: []float64{0, 1}}}}}})
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"num_classes":2,"trees":[{"nodes":[{"f":-3,"l":1,"r":1},{"l":-1,"r":-1,"p":[0.5,0.5]}]}]}`))
	f.Add([]byte(`null`))

	values := []float64{0, -1, 1, 0.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil {
			return
		}
		g, err := FromSnapshot(&snap)
		if err != nil {
			return
		}
		maxFeature := 0
		for ti, tr := range g.trees {
			if len(tr.nodes) > len(snap.Trees[ti].Nodes) {
				t.Fatalf("tree %d decoded to %d nodes from %d", ti, len(tr.nodes), len(snap.Trees[ti].Nodes))
			}
			for _, nd := range tr.nodes {
				if nd.Probs == nil {
					maxFeature = max(maxFeature, nd.Feature)
				}
			}
		}
		rows := 3
		if len(g.inBag) > 0 {
			rows = len(g.inBag[0])
		}
		// A model this wide is legal; the harness just won't allocate
		// for it. The feature is bounded before any arithmetic on it,
		// since a split feature may be as large as MaxInt.
		if maxFeature >= 1<<16 || (maxFeature+1)*rows > 1<<16 || rows*g.numClasses > 1<<16 {
			return
		}
		m := Matrix{Cols: make([][]float64, maxFeature+1), N: rows}
		for c := range m.Cols {
			m.Cols[c] = make([]float64, rows)
			for i := range m.Cols[c] {
				m.Cols[c][i] = values[(i+c)%len(values)]
			}
		}
		full, oob := g.PredictProbaAndOOB(m, nil, nil)
		if len(full) != rows*g.numClasses || len(oob) != rows*g.numClasses {
			t.Fatalf("got %d full and %d out-of-bag values, want %d each", len(full), len(oob), rows*g.numClasses)
		}
	})
}
