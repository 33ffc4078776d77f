package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestZerosEye(t *testing.T) {
	z := Zeros(2, 3)
	if len(z) != 2 || len(z[0]) != 3 || z[1][2] != 0 {
		t.Errorf("Zeros = %v", z)
	}
	e := Eye(3)
	if e[0][0] != 1 || e[1][1] != 1 || e[0][1] != 0 {
		t.Errorf("Eye = %v", e)
	}
}

func TestMeanVecAndCovariance(t *testing.T) {
	data := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	mu := MeanVec(data)
	if !almostEq(mu[0], 3, 1e-12) || !almostEq(mu[1], 4, 1e-12) {
		t.Errorf("MeanVec = %v", mu)
	}
	cov := Covariance(data, nil)
	// Column variance = ((2)^2+(0)^2+(2)^2)/3 = 8/3; perfect covariance.
	if !almostEq(cov[0][0], 8.0/3, 1e-12) || !almostEq(cov[0][1], 8.0/3, 1e-12) {
		t.Errorf("Covariance = %v", cov)
	}
	if cov[0][1] != cov[1][0] {
		t.Error("covariance not symmetric")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	a := [][]float64{{4, 2, 0.6}, {2, 3, 0.4}, {0.6, 0.4, 2}}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct L L^T and compare.
	n := len(a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += l[i][k] * l[j][k]
			}
			if !almostEq(s, a[i][j], 1e-9) {
				t.Errorf("LL^T[%d][%d] = %v, want %v", i, j, s, a[i][j])
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 1}} // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotPD {
		t.Errorf("expected ErrNotPD, got %v", err)
	}
}

func TestCholeskyDet(t *testing.T) {
	a := [][]float64{{4, 0}, {0, 9}}
	l, _ := Cholesky(a)
	if got := CholeskyDet(l); !almostEq(got, 36, 1e-9) {
		t.Errorf("det = %v, want 36", got)
	}
}

func TestMahalanobis2Identity(t *testing.T) {
	l, _ := Cholesky(Eye(2))
	got := Mahalanobis2([]float64{3, 4}, []float64{0, 0}, l)
	if !almostEq(got, 25, 1e-9) {
		t.Errorf("identity Mahalanobis^2 = %v, want 25", got)
	}
}

func TestGaussianLogPDFStandard(t *testing.T) {
	l, _ := Cholesky(Eye(1))
	got := GaussianLogPDF([]float64{0}, []float64{0}, l)
	want := math.Log(1 / math.Sqrt(2*math.Pi))
	if !almostEq(got, want, 1e-9) {
		t.Errorf("logpdf = %v, want %v", got, want)
	}
}

func TestGaussianLogPDFIntegratesToOne(t *testing.T) {
	// 1-D numeric integration over a wide grid.
	l, _ := Cholesky([][]float64{{2.25}})
	var sum float64
	dx := 0.01
	for x := -15.0; x <= 15.0; x += dx {
		sum += math.Exp(GaussianLogPDF([]float64{x}, []float64{1}, l)) * dx
	}
	if !almostEq(sum, 1, 1e-3) {
		t.Errorf("density mass = %v", sum)
	}
}

func TestRegularize(t *testing.T) {
	a := Zeros(2, 2)
	Regularize(a, 0.5)
	if a[0][0] != 0.5 || a[1][1] != 0.5 || a[0][1] != 0 {
		t.Errorf("Regularize = %v", a)
	}
}

// Property: for random SPD matrices (A = B B^T + eps I), Cholesky succeeds
// and its factor reconstructs the matrix: L L^T = A.
func TestCholeskySolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		b := Zeros(n, n)
		for i := range b {
			for j := range b[i] {
				b[i][j] = rng.NormFloat64()
			}
		}
		a := Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					a[i][j] += b[i][k] * b[j][k]
				}
			}
			a[i][i] += 0.1
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("SPD matrix rejected: %v", err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += l[i][k] * l[j][k]
				}
				if !almostEq(s, a[i][j], 1e-9) {
					t.Fatalf("trial %d: (L·Lᵀ)[%d][%d] = %v, want %v", trial, i, j, s, a[i][j])
				}
			}
		}
	}
}
