package forest

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// atProcs runs fn at GOMAXPROCS 1, 2 and 8 — one block, two, and more
// blocks than cores — restoring the old setting afterwards.
func atProcs(fn func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

// TestPredictProbaBatchMatchesPerRow sweeps the batch pass against the
// per-row oracle over a probe matrix, at several GOMAXPROCS settings,
// including rows the forest never saw and rows holding NaN/Inf (NaN <=
// thr is false, so NaN rows deterministically fall right at every split
// — both paths must agree on that too).
func TestPredictProbaBatchMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := gaussData(rng, 300, 4, 3)
	f := TrainWeighted(X, y, nil, Config{Trees: 30, NumClasses: 3}, rand.New(rand.NewSource(2)))

	probe := make([][]float64, 0, len(X))
	probe = append(probe, X[:240]...)
	probe = append(probe,
		[]float64{math.NaN(), 0, 1, 2},
		[]float64{math.Inf(1), math.Inf(-1), 0, math.NaN()},
		[]float64{1e308, -1e308, 1e-308, 0},
	)
	for len(probe) < cap(probe) {
		probe = append(probe, []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10,
			rng.NormFloat64() * 10, rng.NormFloat64() * 10})
	}
	m := RowMajor(probe)
	want := make([][]float64, len(probe))
	for i, row := range probe {
		want[i] = f.PredictProba(row)
	}
	same := func(got []float64, i int) bool {
		w := want[i]
		//cabd:lint-ignore floateq the batch contract is bit-identity with the per-row oracle
		return got[0] == w[0] && got[1] == w[1] && got[2] == w[2]
	}
	atProcs(func(procs int) {
		batch := f.PredictProbaBatch(m, nil)
		if len(batch) != m.N*f.numClasses {
			t.Fatalf("batch length %d, want %d", len(batch), m.N*f.numClasses)
		}
		for i := range probe {
			if got := batch[i*3 : i*3+3]; !same(got, i) {
				t.Fatalf("procs=%d row %d: batch %v, per-row %v", procs, i, got, want[i])
			}
		}
		// Buffer reuse must not leak previous contents.
		for i := range batch {
			batch[i] = -1
		}
		again := f.PredictProbaBatch(m, batch)
		if &again[0] != &batch[0] {
			t.Fatal("batch buffer was reallocated despite sufficient capacity")
		}
		for i := range probe {
			if got := again[i*3 : i*3+3]; !same(got, i) {
				t.Fatalf("procs=%d row %d: reused batch %v, per-row %v", procs, i, got, want[i])
			}
		}
	})
}

// TestPredictProbaOOBBatchMatchesPerRow covers the out-of-bag batch pass,
// including the voters==0 full-ensemble fallback, forced by weighting one
// row so heavily that every bootstrap sample contains it.
func TestPredictProbaOOBBatchMatchesPerRow(t *testing.T) {
	const heavy = 250
	X, y := gaussData(rand.New(rand.NewSource(11)), 300, 4, 2)
	w := make([]float64, len(X))
	for i := range w {
		w[i] = 1
	}
	w[heavy] = 1e9 // in (essentially) every bag -> OOB fallback path
	f := TrainWeighted(X, y, w, Config{Trees: 20, NumClasses: 2}, rand.New(rand.NewSource(4)))
	for ti := range f.inBag {
		if !f.inBag[ti][heavy] {
			t.Fatal("fixture never exercised the voters==0 fallback; raise the weight")
		}
	}

	m := RowMajor(X)
	atProcs(func(procs int) {
		batch := f.PredictProbaOOBBatch(m, nil)
		for i, row := range X {
			want := f.PredictProbaOOB(i, row)
			got := batch[i*2 : i*2+2]
			//cabd:lint-ignore floateq the batch contract is bit-identity with the per-row oracle
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("procs=%d row %d: batch %v, per-row %v", procs, i, got, want)
			}
		}
	})
}

// sameBits reports whether got and want hold the same float64 bits.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for c := range want {
		if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
			return false
		}
	}
	return true
}

// checkTrainingProba holds f's recorded training distributions to the
// per-row oracles PredictProba and PredictProbaOOB on every training row
// of m, bit for bit.
func checkTrainingProba(t *testing.T, f *Forest, m Matrix, full, oob []float64) {
	t.Helper()
	k := f.numClasses
	if len(full) != m.N*k || len(oob) != m.N*k {
		t.Fatalf("TrainingProba lengths %d and %d, want %d", len(full), len(oob), m.N*k)
	}
	row := make([]float64, len(m.Cols))
	for i := 0; i < m.N; i++ {
		for c, col := range m.Cols {
			row[c] = col[i]
		}
		want, wantOOB := f.PredictProba(row), f.PredictProbaOOB(i, row)
		got, gotOOB := full[i*k:(i+1)*k], oob[i*k:(i+1)*k]
		if !sameBits(got, want) || !sameBits(gotOOB, wantOOB) {
			t.Fatalf("row %d %v: recorded full %v oob %v, per-row %v %v", i, row, got, gotOOB, want, wantOOB)
		}
	}
}

// nanColumns overwrites none, a third, two thirds or all of each
// column's values with NaN.
func nanColumns(rng *rand.Rand, m Matrix) {
	for _, col := range m.Cols {
		share := rng.Intn(4)
		for i := range col {
			if rng.Intn(3) < share {
				col[i] = math.NaN()
			}
		}
	}
}

// TestRecordedLeavesMatchPerRow is the differential of the recorded
// training distributions: on every training row, TrainingProba must
// equal the per-row oracles PredictProba and PredictProbaOOB bit for
// bit. The problems are diffCase's, half of them with NaN columns (NaN
// goes right in the builder and in the tree walk alike, so diffCase's
// sort caveat does not apply), and one with a row every tree drew (the
// voters == 0 fallback). Training runs at GOMAXPROCS 1, 2 and 8, so
// concurrent tree builders write their own slices of the leaf record.
func TestRecordedLeavesMatchPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	atProcs(func(procs int) {
		for trial := 0; trial < 120; trial++ {
			m, y, w, cfg := diffCase(rng)
			if trial%2 == 1 {
				nanColumns(rng, m)
			}
			f := TrainMatrixWeighted(m, y, w, cfg, rand.New(rand.NewSource(rng.Int63())))
			full, oob := f.TrainingProba(nil, nil)
			checkTrainingProba(t, f, m, full, oob)
		}
	})

	const heavy = 250
	X, y := gaussData(rand.New(rand.NewSource(11)), 300, 4, 2)
	w := make([]float64, len(X))
	for i := range w {
		w[i] = 1
	}
	w[heavy] = 1e9 // in (essentially) every bag -> OOB fallback path
	m := RowMajor(X)
	atProcs(func(procs int) {
		f := TrainMatrixWeighted(m, y, w, Config{Trees: 20, NumClasses: 2}, rand.New(rand.NewSource(4)))
		if f.voters(heavy) != 0 {
			t.Fatal("fixture never exercised the voters==0 fallback; raise the weight")
		}
		full, oob := f.TrainingProba(nil, nil)
		checkTrainingProba(t, f, m, full, oob)
		// Reused buffers holding stale values give the same bits.
		for i := range full {
			full[i], oob[i] = -1, -1
		}
		full2, oob2 := f.TrainingProba(full, oob)
		if &full2[0] != &full[0] || &oob2[0] != &oob[0] {
			t.Fatal("TrainingProba reallocated buffers despite sufficient capacity")
		}
		checkTrainingProba(t, f, m, full2, oob2)
	})
}

// allocsPerCall is testing.AllocsPerRun at the current GOMAXPROCS:
// AllocsPerRun pins GOMAXPROCS to 1, which would leave a single row
// block and hide the fan-out's allocations.
func allocsPerCall(runs int, fn func()) float64 {
	for i := 0; i < runs; i++ {
		fn() // warm up, as AllocsPerRun does, and let exited goroutines be reused
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestPredictAllocBudget holds the row-parallel TrainingProba pass to its
// allocation budget: with reused outputs a call allocates at most a small
// constant per row block (a goroutine's closure and the shared wait
// group), whatever the row and tree counts, and nothing on one block.
func TestPredictAllocBudget(t *testing.T) {
	const perBlock = 2
	for _, shape := range []struct{ rows, trees int }{{40, 4}, {300, 4}, {300, 40}, {900, 4}} {
		X, y := gaussData(rand.New(rand.NewSource(17)), shape.rows, 4, 3)
		f := TrainWeighted(X, y, nil, Config{Trees: shape.trees, NumClasses: 3}, rand.New(rand.NewSource(5)))
		full, oob := f.TrainingProba(nil, nil)
		atProcs(func(procs int) {
			budget := 0
			if blocks := min(procs, shape.rows/minBlockRows); blocks > 1 {
				budget = perBlock * blocks
			}
			if allocs := allocsPerCall(10, func() { f.TrainingProba(full, oob) }); allocs > float64(budget) {
				t.Errorf("TrainingProba rows=%d trees=%d procs=%d: %v allocs per call, budget %d",
					shape.rows, shape.trees, procs, allocs, budget)
			}
		})
	}
}

// TestPredictProbaBatchEmpty pins the degenerate shape: zero rows and a
// nil destination must not panic and return no values.
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
// through the batch pass and demands bit-identity with the per-row
// oracle on every row. It also trains on those values, three
// rows of a small training set, and holds the recorded training
// distributions to the per-row oracles.
func FuzzPredictBatch(f *testing.F) {
	X, y := gaussData(rand.New(rand.NewSource(21)), 150, 4, 3)
	fr := TrainWeighted(X, y, nil, Config{Trees: 15, NumClasses: 3}, rand.New(rand.NewSource(6)))
	small, smallY := X[:40:40], y[:40]
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
		train := append(append([][]float64(nil), rows...), small[len(rows):]...)
		m = RowMajor(train)
		ft := TrainMatrixWeighted(m, smallY, nil, Config{Trees: 7, MinLeaf: 2, NumClasses: 3}, rand.New(rand.NewSource(8)))
		full, oob := ft.TrainingProba(nil, nil)
		checkTrainingProba(t, ft, m, full, oob)
	})
}
