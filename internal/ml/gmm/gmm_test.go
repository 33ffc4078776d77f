package gmm

import (
	"math"
	"math/rand"
	"testing"
)

func sample(rng *rand.Rand, mu []float64, sd float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, len(mu))
		for j := range row {
			row[j] = mu[j] + rng.NormFloat64()*sd
		}
		out[i] = row
	}
	return out
}

func TestFitTwoComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := append(sample(rng, []float64{0, 0}, 0.5, 100),
		sample(rng, []float64{8, 8}, 0.5, 100)...)
	m := Fit(data, Config{K: 2, Restarts: 3}, rng)
	if m == nil {
		t.Fatal("fit returned nil")
	}
	// One mean near (0,0), the other near (8,8).
	near := func(mu []float64, tx, ty float64) bool {
		return math.Abs(mu[0]-tx) < 1 && math.Abs(mu[1]-ty) < 1
	}
	ok := (near(m.Means[0], 0, 0) && near(m.Means[1], 8, 8)) ||
		(near(m.Means[1], 0, 0) && near(m.Means[0], 8, 8))
	if !ok {
		t.Errorf("means = %v", m.Means)
	}
	// Weights roughly balanced and summing to 1.
	if math.Abs(m.Weights[0]+m.Weights[1]-1) > 1e-9 {
		t.Errorf("weights don't sum to 1: %v", m.Weights)
	}
	if m.Weights[0] < 0.3 || m.Weights[0] > 0.7 {
		t.Errorf("weights unbalanced: %v", m.Weights)
	}
}

func TestAssignSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := sample(rng, []float64{-5}, 0.4, 80)
	b := sample(rng, []float64{5}, 0.4, 80)
	m := Fit(append(a, b...), Config{K: 2}, rng)
	ca := m.Assign(a[0])
	for _, x := range a {
		if m.Assign(x) != ca {
			t.Fatal("cluster A split")
		}
	}
	for _, x := range b {
		if m.Assign(x) == ca {
			t.Fatal("clusters merged")
		}
	}
}

func TestResponsibilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := append(sample(rng, []float64{0, 0, 0}, 1, 60),
		sample(rng, []float64{4, 4, 4}, 1, 60)...)
	m := Fit(data, Config{K: 3}, rng)
	for _, x := range data[:10] {
		r := m.Responsibilities(x)
		var s float64
		for _, v := range r {
			if v < 0 || v > 1+1e-12 {
				t.Fatalf("responsibility out of range: %v", r)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("responsibilities sum to %v", s)
		}
	}
}

func TestDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if m := Fit(nil, Config{K: 2}, rng); m != nil {
		t.Error("nil data should yield nil model")
	}
	// Constant data must not blow up (covariance regularization).
	data := make([][]float64, 20)
	for i := range data {
		data[i] = []float64{1, 1}
	}
	m := Fit(data, Config{K: 2}, rng)
	if m == nil {
		t.Fatal("constant data fit failed")
	}
	r := m.Responsibilities([]float64{1, 1})
	var s float64
	for _, v := range r {
		s += v
	}
	if math.Abs(s-1) > 1e-6 {
		t.Errorf("constant-data responsibilities sum to %v", s)
	}
}

func TestKShrinksToN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := [][]float64{{0}, {5}}
	m := Fit(data, Config{K: 4}, rng)
	if m == nil || m.K() != 2 {
		t.Fatalf("expected K=2, got %v", m)
	}
}

func TestLogSumExpStability(t *testing.T) {
	// Large negative logs must not underflow to -Inf incorrectly.
	got := logSumExp([]float64{-1000, -1000})
	want := -1000 + math.Log(2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("logSumExp = %v, want %v", got, want)
	}
	if v := logSumExp([]float64{math.Inf(-1), math.Inf(-1)}); !math.IsInf(v, -1) {
		t.Errorf("all -Inf logSumExp = %v", v)
	}
}
