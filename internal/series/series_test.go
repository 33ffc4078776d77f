package series

import (
	"math"
	"math/rand"
	"testing"
)

func TestLabelString(t *testing.T) {
	cases := map[Label]string{
		Normal:            "normal",
		SingleAnomaly:     "single-anomaly",
		CollectiveAnomaly: "collective-anomaly",
		ChangePoint:       "change-point",
		Label(9):          "label(9)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Label(%d).String() = %q, want %q", l, got, want)
		}
	}
}

func TestIsAnomaly(t *testing.T) {
	if !SingleAnomaly.IsAnomaly() || !CollectiveAnomaly.IsAnomaly() {
		t.Error("anomaly labels not recognized")
	}
	if Normal.IsAnomaly() || ChangePoint.IsAnomaly() {
		t.Error("non-anomaly labels misclassified")
	}
}

func TestLabelAt(t *testing.T) {
	s := New("x", []float64{1, 2, 3})
	if s.LabelAt(1) != Normal {
		t.Error("unlabeled series should report Normal")
	}
	s.EnsureLabels()[2] = ChangePoint
	if s.LabelAt(2) != ChangePoint {
		t.Error("label not returned")
	}
	if s.LabelAt(-1) != Normal || s.LabelAt(10) != Normal {
		t.Error("out-of-range should be Normal")
	}
}

func TestIndexAccessors(t *testing.T) {
	s := New("x", make([]float64, 6))
	l := s.EnsureLabels()
	l[1] = SingleAnomaly
	l[2] = CollectiveAnomaly
	l[4] = ChangePoint
	an := s.AnomalyIndices()
	if len(an) != 2 || an[0] != 1 || an[1] != 2 {
		t.Errorf("AnomalyIndices = %v", an)
	}
	cp := s.ChangePointIndices()
	if len(cp) != 1 || cp[0] != 4 {
		t.Errorf("ChangePointIndices = %v", cp)
	}
}

func TestPointsEmbedding(t *testing.T) {
	s := New("x", []float64{1, 2, 3, 4, 5})
	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("len(pts) = %d", len(pts))
	}
	// For a linear ramp both standardized coordinates coincide.
	for _, p := range pts {
		if !almostEq(p[0], p[1], 1e-12) {
			t.Errorf("ramp embedding mismatch: %v", p)
		}
	}
}

func TestDiffs(t *testing.T) {
	xs := []float64{1, 3, 2, 2, 10}
	d1 := FirstDiff(xs)
	want1 := []float64{0, 2, 1, 0, 8}
	for i := range want1 {
		if d1[i] != want1[i] {
			t.Errorf("FirstDiff[%d] = %v, want %v", i, d1[i], want1[i])
		}
	}
	d2 := SecondDiff(xs)
	want2 := []float64{0, 0, 1, 1, 8}
	for i := range want2 {
		if d2[i] != want2[i] {
			t.Errorf("SecondDiff[%d] = %v, want %v", i, d2[i], want2[i])
		}
	}
}

func TestSecondDiffSpikeResponse(t *testing.T) {
	// A single spike in an otherwise constant series creates a strong
	// second-difference response around it.
	xs := make([]float64, 20)
	xs[10] = 100
	// With the paper's absolute first difference (Eq. 5), a symmetric
	// spike produces |Δ|=100 on both flanks, so Δ″ peaks at the spike
	// index and the index after the descent, and is 0 in between.
	d2 := SecondDiff(xs)
	if d2[10] != 100 || d2[11] != 0 || d2[12] != 100 {
		t.Errorf("spike response = %v %v %v", d2[10], d2[11], d2[12])
	}
	if d2[5] != 0 {
		t.Error("flat region should have zero second diff")
	}
}

// Property: second difference of any affine sequence is identically zero.
func TestSecondDiffAffineProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a, b := rng.NormFloat64()*10, rng.NormFloat64()*5
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = a + b*float64(i)
		}
		for i, v := range SecondDiff(xs) {
			if !almostEq(v, 0, 1e-9) {
				t.Fatalf("affine second diff [%d] = %v (a=%v b=%v)", i, v, a, b)
			}
		}
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
