package forest

import (
	"math"
	"math/rand"
	"testing"
)

// xorData is not linearly separable; trees must carve it correctly.
func xorData(rng *rand.Rand, n int) ([][]float64, []int) {
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		a, b := rng.Float64(), rng.Float64()
		X[i] = []float64{a, b}
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return X, y
}

func TestXORAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := xorData(rng, 400)
	f := Train(X, y, Config{Trees: 60, NumClasses: 2}, rng)
	Xt, yt := xorData(rng, 200)
	correct := 0
	for i, x := range Xt {
		if f.Predict(x) == yt[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(Xt))
	if acc < 0.9 {
		t.Errorf("XOR accuracy = %v, want >= 0.9", acc)
	}
}

func TestThreeClassSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []int
	centers := [][]float64{{0, 0}, {5, 0}, {0, 5}}
	for c, ctr := range centers {
		for i := 0; i < 60; i++ {
			X = append(X, []float64{ctr[0] + rng.NormFloat64()*0.4,
				ctr[1] + rng.NormFloat64()*0.4})
			y = append(y, c)
		}
	}
	f := Train(X, y, Config{Trees: 40, NumClasses: 3}, rng)
	for c, ctr := range centers {
		if got := f.Predict(ctr); got != c {
			t.Errorf("center %d predicted as %d", c, got)
		}
		p := f.PredictProba(ctr)
		if p[c] < 0.8 {
			t.Errorf("center %d probability = %v", c, p[c])
		}
	}
}

func TestProbaSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := xorData(rng, 100)
	f := Train(X, y, Config{Trees: 20, NumClasses: 2}, rng)
	for trial := 0; trial < 50; trial++ {
		p := f.PredictProba([]float64{rng.Float64(), rng.Float64()})
		var s float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", s)
		}
	}
}

func TestTinyTrainingSet(t *testing.T) {
	// Active learning starts with a handful of points; the forest must
	// cope with n = 2.
	rng := rand.New(rand.NewSource(4))
	X := [][]float64{{0, 0, 0}, {1, 1, 1}}
	y := []int{0, 2}
	f := Train(X, y, Config{Trees: 30, NumClasses: 3}, rng)
	if f == nil {
		t.Fatal("tiny training set returned nil")
	}
	if f.Predict([]float64{0.05, 0, 0}) != 0 {
		t.Error("near-origin point misclassified")
	}
	if f.Predict([]float64{0.95, 1, 1}) != 2 {
		t.Error("near-ones point misclassified")
	}
}

func TestSingleClassTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X := [][]float64{{0}, {1}, {2}}
	y := []int{1, 1, 1}
	f := Train(X, y, Config{Trees: 10, NumClasses: 3}, rng)
	p := f.PredictProba([]float64{5})
	if p[1] != 1 {
		t.Errorf("single-class proba = %v", p)
	}
}

func TestEmptyAndInvalidInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if f := Train(nil, nil, Config{NumClasses: 2}, rng); f != nil {
		t.Error("empty training should return nil")
	}
	if f := Train([][]float64{{1}}, []int{0, 1}, Config{NumClasses: 2}, rng); f != nil {
		t.Error("mismatched lengths should return nil")
	}
	if f := Train([][]float64{{1}}, []int{0}, Config{}, rng); f != nil {
		t.Error("zero classes should return nil")
	}
}

func TestDeterminismWithSeed(t *testing.T) {
	X, y := xorData(rand.New(rand.NewSource(7)), 100)
	f1 := Train(X, y, Config{Trees: 15, NumClasses: 2}, rand.New(rand.NewSource(8)))
	f2 := Train(X, y, Config{Trees: 15, NumClasses: 2}, rand.New(rand.NewSource(8)))
	probe := []float64{0.3, 0.8}
	p1, p2 := f1.PredictProba(probe), f2.PredictProba(probe)
	if p1[0] != p2[0] || p1[1] != p2[1] {
		t.Errorf("same seed diverged: %v vs %v", p1, p2)
	}
}

func TestConstantFeatures(t *testing.T) {
	// No valid split exists; the forest must fall back to leaves.
	rng := rand.New(rand.NewSource(9))
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	f := Train(X, y, Config{Trees: 10, NumClasses: 2}, rng)
	p := f.PredictProba([]float64{1, 1})
	if math.Abs(p[0]+p[1]-1) > 1e-9 {
		t.Errorf("constant-feature proba = %v", p)
	}
}

func BenchmarkTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, y := xorData(rng, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(X, y, Config{Trees: 50, NumClasses: 2}, rand.New(rand.NewSource(2)))
	}
}

// classifierShape is the detector's training problem: about 175
// candidates with 4 features, 3 classes and square-root class-balancing
// weights, trained with 100 trees and MinLeaf 3.
func classifierShape() (Matrix, []int, []float64, Config) {
	X, y := gaussData(rand.New(rand.NewSource(31)), 175, 4, 3)
	w := make([]float64, len(y))
	for i := range w {
		w[i] = 1 + float64(y[i])/2
	}
	return RowMajor(X), y, w, Config{Trees: 100, MinLeaf: 3, NumClasses: 3}
}

// TestTrainAllocContract holds training to its allocation budget: per
// tree only the node array, the leaf-distribution backing slice and the
// in-bag mask; per worker its builder scratch; per call the presorted
// orders, the sampler and the result headers. A per-node or per-leaf
// allocation would cost dozens more per tree at this shape.
func TestTrainAllocContract(t *testing.T) {
	m, y, w, cfg := classifierShape()
	const perTree, perWorker, perCall = 3, 20, 20
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		allocs := testing.AllocsPerRun(3, func() {
			TrainMatrixWeighted(m, y, w, cfg, rand.New(rand.NewSource(1)))
		})
		if limit := float64(perTree*cfg.Trees + perWorker*workers + perCall); allocs > limit {
			t.Errorf("workers=%d: %v allocs per training, budget %v", workers, allocs, limit)
		}
	}
}

// sinkForest keeps benchmarked training results alive.
var sinkForest *Forest

// BenchmarkTrainClassifier trains at the detector's shape, the cost of
// one active-learning round's retraining.
func BenchmarkTrainClassifier(b *testing.B) {
	m, y, w, cfg := classifierShape()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkForest = TrainMatrixWeighted(m, y, w, cfg, rand.New(rand.NewSource(2)))
	}
}

// BenchmarkPredictProbaAndOOB is the fused inference pass at the
// detector's shape: full and out-of-bag distributions of every
// training row.
func BenchmarkPredictProbaAndOOB(b *testing.B) {
	m, y, w, cfg := classifierShape()
	f := TrainMatrixWeighted(m, y, w, cfg, rand.New(rand.NewSource(2)))
	full, oob := f.PredictProbaAndOOB(m, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, oob = f.PredictProbaAndOOB(m, full, oob)
	}
}

func BenchmarkPredictProba(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	X, y := xorData(rng, 500)
	f := Train(X, y, Config{Trees: 50, NumClasses: 2}, rng)
	probe := []float64{0.4, 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PredictProba(probe)
	}
}

func TestOOBDiffersFromInBag(t *testing.T) {
	// A singleton class member must look confident in-bag but weak OOB:
	// the trees that never saw it cannot reproduce its label.
	rng := rand.New(rand.NewSource(11))
	X := make([][]float64, 41)
	y := make([]int, 41)
	for i := 0; i < 40; i++ {
		X[i] = []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}
		y[i] = 0
	}
	X[40] = []float64{0.05, -0.02} // inside the class-0 cloud
	y[40] = 1                      // but labeled differently
	f := TrainWeighted(X, y, nil, Config{Trees: 60, NumClasses: 2}, rng)
	full := f.PredictProba(X[40])
	oob := f.PredictProbaOOB(40, X[40])
	if oob[1] >= full[1] {
		t.Errorf("OOB support (%v) not below in-bag (%v) for the singleton", oob[1], full[1])
	}
	if oob[1] > 0.3 {
		t.Errorf("OOB probability of the unsupported label = %v, want near 0", oob[1])
	}
}

func TestWeightedSamplingBiasesBootstrap(t *testing.T) {
	// Giving one class heavy weight must raise its predicted probability.
	X := [][]float64{{0}, {0.01}, {0.02}, {1}, {1.01}}
	y := []int{0, 0, 0, 1, 1}
	flat := Train(X, y, Config{Trees: 40, NumClasses: 2}, rand.New(rand.NewSource(13)))
	heavy := TrainWeighted(X, y, []float64{1, 1, 1, 20, 20},
		Config{Trees: 40, NumClasses: 2}, rand.New(rand.NewSource(13)))
	probe := []float64{0.5}
	if heavy.PredictProba(probe)[1] <= flat.PredictProba(probe)[1] {
		t.Errorf("weighting class 1 did not raise its boundary probability: %v vs %v",
			heavy.PredictProba(probe), flat.PredictProba(probe))
	}
}
