package eval

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatchExact(t *testing.T) {
	m := Match([]int{1, 5, 9}, []int{1, 5, 20}, 0)
	if m.TP != 2 || m.FP != 1 || m.FN != 1 {
		t.Errorf("counts = %+v", m)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-12 || math.Abs(m.Recall-2.0/3) > 1e-12 {
		t.Errorf("P/R = %v/%v", m.Precision, m.Recall)
	}
	if math.Abs(m.F1-2.0/3) > 1e-12 {
		t.Errorf("F1 = %v", m.F1)
	}
}

func TestMatchWithTolerance(t *testing.T) {
	m := Match([]int{10}, []int{12}, 2)
	if m.TP != 1 {
		t.Errorf("tolerant match failed: %+v", m)
	}
	m = Match([]int{10}, []int{13}, 2)
	if m.TP != 0 {
		t.Errorf("out-of-tolerance matched: %+v", m)
	}
}

func TestMatchOneToOne(t *testing.T) {
	// Two predictions near one truth: only one may count.
	m := Match([]int{9, 11}, []int{10}, 2)
	if m.TP != 1 || m.FP != 1 {
		t.Errorf("double-count: %+v", m)
	}
	// One prediction near two truths: one TP, one FN.
	m = Match([]int{10}, []int{9, 11}, 2)
	if m.TP != 1 || m.FN != 1 {
		t.Errorf("truth reuse: %+v", m)
	}
}

func TestMatchEmptySides(t *testing.T) {
	m := Match(nil, []int{1, 2}, 0)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 || m.FN != 2 {
		t.Errorf("empty pred: %+v", m)
	}
	m = Match([]int{1}, nil, 0)
	if m.FP != 1 || m.Recall != 0 {
		t.Errorf("empty truth: %+v", m)
	}
	m = Match(nil, nil, 0)
	if m.F1 != 0 || m.TP != 0 {
		t.Errorf("both empty: %+v", m)
	}
}

func TestMatchDeduplicates(t *testing.T) {
	m := Match([]int{5, 5, 5}, []int{5}, 0)
	if m.TP != 1 || m.FP != 0 {
		t.Errorf("duplicates counted: %+v", m)
	}
}

func TestPerfectDetection(t *testing.T) {
	m := Match([]int{3, 7, 8}, []int{3, 7, 8}, 0)
	if m.F1 != 1 || m.Precision != 1 || m.Recall != 1 {
		t.Errorf("perfect detection: %+v", m)
	}
}

func TestBNF(t *testing.T) {
	if got := BNF(12, 100); math.Abs(got-0.88) > 1e-12 {
		t.Errorf("BNF = %v, want 0.88", got)
	}
	if got := BNF(0, 50); got != 1 {
		t.Errorf("BNF no queries = %v", got)
	}
	if got := BNF(10, 0); got != 0 {
		t.Errorf("BNF zero total = %v", got)
	}
	if got := BNF(200, 100); got != 0 {
		t.Errorf("BNF clamps at 0, got %v", got)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2}, []int{1, 2}, 0); got != 1 {
		t.Errorf("perfect accuracy = %v", got)
	}
	// 1 hit, 1 spurious, 1 missed -> 1/3.
	if got := Accuracy([]int{1, 9}, []int{1, 5}, 0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("accuracy = %v, want 1/3", got)
	}
	if got := Accuracy(nil, nil, 0); got != 1 {
		t.Errorf("vacuous accuracy = %v", got)
	}
}

// Property: F1 is always within [0,1] and symmetric in the tolerance
// sense: swapping pred/truth swaps P and R but preserves F1.
func TestF1SymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var a, b []int
		for i := 0; i < rng.Intn(20); i++ {
			a = append(a, rng.Intn(100))
		}
		for i := 0; i < rng.Intn(20); i++ {
			b = append(b, rng.Intn(100))
		}
		m1 := Match(a, b, 0)
		m2 := Match(b, a, 0)
		if m1.F1 < 0 || m1.F1 > 1 {
			t.Fatalf("F1 out of range: %v", m1.F1)
		}
		if math.Abs(m1.F1-m2.F1) > 1e-12 {
			t.Fatalf("F1 asymmetric: %v vs %v (a=%v b=%v)", m1.F1, m2.F1, a, b)
		}
		if math.Abs(m1.Precision-m2.Recall) > 1e-12 {
			t.Fatalf("P/R swap violated")
		}
	}
}
