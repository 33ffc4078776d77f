package forest

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// gaussData builds an n-row, d-feature training set with k interleaved
// class clusters — enough structure that trees actually split.
func gaussData(rng *rand.Rand, n, d, k int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		y[i] = i % k
		row := make([]float64, d)
		for f := range row {
			row[f] = float64(y[i]) + rng.NormFloat64()*0.6
		}
		X[i] = row
	}
	return X, y
}

// TestTrainWorkersBitIdentical is the parallel-training contract: the
// same seed must produce byte-identical ensembles (trees and bootstrap
// membership both) at every worker count, because each tree's rand
// stream is split off the caller's rng before the fan-out.
func TestTrainWorkersBitIdentical(t *testing.T) {
	X, y := gaussData(rand.New(rand.NewSource(3)), 240, 5, 3)
	w := make([]float64, len(X))
	for i := range w {
		w[i] = 1 + float64(i%7)
	}
	for _, weights := range [][]float64{nil, w} {
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			cfg := Config{Trees: 40, NumClasses: 3, Workers: workers}
			f := TrainWeighted(X, y, weights, cfg, rand.New(rand.NewSource(17)))
			if f == nil {
				t.Fatal("nil forest")
			}
			got, err := json.Marshal(f.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if string(got) != string(want) {
				t.Fatalf("workers=%d (weighted=%v): ensemble differs from sequential oracle",
					workers, weights != nil)
			}
		}
	}
}

// TestTrainMatrixMatchesRowMajor: the column-major entry point and the
// row-major wrapper must train identical ensembles from the same data.
func TestTrainMatrixMatchesRowMajor(t *testing.T) {
	X, y := gaussData(rand.New(rand.NewSource(5)), 150, 4, 2)
	cfg := Config{Trees: 25, NumClasses: 2, Workers: 1}
	a := TrainWeighted(X, y, nil, cfg, rand.New(rand.NewSource(9)))
	b := TrainMatrixWeighted(RowMajor(X), y, nil, cfg, rand.New(rand.NewSource(9)))
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("row-major and column-major training disagree")
	}
}

// TestPredictProbaBatchMatchesPerRow sweeps the tree-major batch pass
// against the per-row oracle, including rows the forest never saw and
// rows holding NaN/Inf (NaN <= thr is false, so NaN rows deterministically
// fall right at every split — both paths must agree on that too).
func TestPredictProbaBatchMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := gaussData(rng, 200, 4, 3)
	f := TrainWeighted(X, y, nil, Config{Trees: 30, NumClasses: 3}, rand.New(rand.NewSource(2)))

	probe := make([][]float64, 0, 64)
	probe = append(probe, X[:40]...)
	probe = append(probe,
		[]float64{math.NaN(), 0, 1, 2},
		[]float64{math.Inf(1), math.Inf(-1), 0, math.NaN()},
		[]float64{1e308, -1e308, 1e-308, 0},
	)
	for i := 0; i < 20; i++ {
		probe = append(probe, []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10,
			rng.NormFloat64() * 10, rng.NormFloat64() * 10})
	}
	m := RowMajor(probe)
	batch := f.PredictProbaBatch(m, nil)
	if len(batch) != m.N*f.NumClasses() {
		t.Fatalf("batch length %d, want %d", len(batch), m.N*f.NumClasses())
	}
	for i, row := range probe {
		want := f.PredictProba(row)
		got := batch[i*3 : i*3+3]
		//cabd:lint-ignore floateq the batch contract is bit-identity with the per-row oracle
		if got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("row %d: batch %v, per-row %v", i, got, want)
		}
	}
	// Buffer reuse must not leak previous contents.
	again := f.PredictProbaBatch(m, batch)
	if &again[0] != &batch[0] {
		t.Fatal("batch buffer was reallocated despite sufficient capacity")
	}
	// The fused pass's full distribution is the same per-row oracle, and
	// it reuses both buffers (filled with stale values here).
	for i := range again {
		again[i] = -1
	}
	oobBuf := make([]float64, len(again))
	full, oob := f.PredictProbaAndOOB(m, again, oobBuf)
	if &full[0] != &again[0] || &oob[0] != &oobBuf[0] {
		t.Fatal("fused pass reallocated buffers despite sufficient capacity")
	}
	for i, row := range probe {
		want := f.PredictProba(row)
		got := full[i*3 : i*3+3]
		//cabd:lint-ignore floateq the fused contract is bit-identity with the per-row oracle
		if got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("row %d: fused full %v, per-row %v", i, got, want)
		}
	}
}

// TestPredictProbaOOBBatchMatchesPerRow covers the out-of-bag batch pass
// including the voters==0 full-ensemble fallback, forced by weighting
// one row so heavily that every bootstrap sample contains it.
func TestPredictProbaOOBBatchMatchesPerRow(t *testing.T) {
	X, y := gaussData(rand.New(rand.NewSource(11)), 120, 4, 2)
	w := make([]float64, len(X))
	for i := range w {
		w[i] = 1
	}
	w[0] = 1e9 // row 0 is in (essentially) every bag -> OOB fallback path
	f := TrainWeighted(X, y, w, Config{Trees: 20, NumClasses: 2}, rand.New(rand.NewSource(4)))

	m := RowMajor(X)
	batch := f.PredictProbaOOBBatch(m, nil)
	full, oob := f.PredictProbaAndOOB(m, nil, nil)
	sawFallback := false
	for i, row := range X {
		voters := 0
		for ti := range f.inBag {
			if !f.inBag[ti][i] {
				voters++
			}
		}
		if voters == 0 {
			sawFallback = true
		}
		want := f.PredictProbaOOB(i, row)
		wantFull := f.PredictProba(row)
		got, gotOOB, gotFull := batch[i*2:i*2+2], oob[i*2:i*2+2], full[i*2:i*2+2]
		//cabd:lint-ignore floateq the batch contract is bit-identity with the per-row oracle
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("row %d (voters=%d): batch %v, per-row %v", i, voters, got, want)
		}
		//cabd:lint-ignore floateq the fused contract is bit-identity with the per-row oracles
		if gotOOB[0] != want[0] || gotOOB[1] != want[1] || gotFull[0] != wantFull[0] || gotFull[1] != wantFull[1] {
			t.Fatalf("row %d (voters=%d): fused oob %v full %v, per-row %v %v", i, voters, gotOOB, gotFull, want, wantFull)
		}
	}
	if !sawFallback {
		t.Fatal("fixture never exercised the voters==0 fallback; raise the weight")
	}
}

// TestPredictProbaBatchEmpty pins the degenerate shapes: zero rows and a
// nil destination must not panic, and a snapshot-restored forest without
// in-bag info must still batch-predict.
func TestPredictProbaBatchEmpty(t *testing.T) {
	X, y := gaussData(rand.New(rand.NewSource(13)), 60, 3, 2)
	f := TrainWeighted(X, y, nil, Config{Trees: 5, NumClasses: 2}, rand.New(rand.NewSource(1)))
	empty := Matrix{Cols: [][]float64{{}, {}, {}}, N: 0}
	if got := f.PredictProbaBatch(empty, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d values", len(got))
	}
	if got := f.PredictProbaOOBBatch(empty, nil); len(got) != 0 {
		t.Fatalf("empty OOB batch returned %d values", len(got))
	}
}

// FuzzPredictBatch feeds arbitrary (including non-finite) feature values
// through the tree-major batch pass and demands bit-identity with the
// per-row oracle on every row.
func FuzzPredictBatch(f *testing.F) {
	X, y := gaussData(rand.New(rand.NewSource(21)), 150, 4, 3)
	fr := TrainWeighted(X, y, nil, Config{Trees: 15, NumClasses: 3}, rand.New(rand.NewSource(6)))
	f.Add(0.0, 1.0, -2.5, 3.75)
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), 0.0)
	f.Add(1e308, -1e308, 5e-324, -0.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		rows := [][]float64{
			{a, b, c, d},
			{d, c, b, a},
			{a, a, a, a},
		}
		m := RowMajor(rows)
		batch := fr.PredictProbaBatch(m, nil)
		for i, row := range rows {
			want := fr.PredictProba(row)
			got := batch[i*3 : i*3+3]
			for k := range want {
				same := got[k] == want[k] || (math.IsNaN(got[k]) && math.IsNaN(want[k])) //cabd:lint-ignore floateq the batch contract is bit-identity with the per-row oracle
				if !same {
					t.Fatalf("row %v class %d: batch %v, per-row %v", row, k, got, want)
				}
			}
		}
	})
}
