// Package linalg provides the small dense linear-algebra kernels the ML
// substrate needs: covariance estimation, Cholesky factorization,
// symmetric positive-definite inversion and determinants for the low
// dimensionalities (2-8) used by the GMM bootstrap and the MCD baseline.
// Matrices are [][]float64 in row-major order.
package linalg

import (
	"errors"
	"math"
)

// ErrNotPD is returned when a Cholesky factorization meets a non
// positive-definite matrix.
var ErrNotPD = errors.New("linalg: matrix not positive definite")

// Zeros returns an r x c zero matrix.
func Zeros(r, c int) [][]float64 {
	m := make([][]float64, r)
	buf := make([]float64, r*c)
	for i := range m {
		m[i], buf = buf[:c], buf[c:]
	}
	return m
}

// Eye returns the n x n identity matrix.
func Eye(n int) [][]float64 {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		m[i][i] = 1
	}
	return m
}

// MeanVec returns the column means of data (rows are observations).
func MeanVec(data [][]float64) []float64 {
	if len(data) == 0 {
		return nil
	}
	d := len(data[0])
	mu := make([]float64, d)
	for _, row := range data {
		for j, v := range row {
			mu[j] += v
		}
	}
	for j := range mu {
		mu[j] /= float64(len(data))
	}
	return mu
}

// Covariance returns the d x d covariance matrix of data around mu
// (population normalization). When mu is nil the column means are used.
func Covariance(data [][]float64, mu []float64) [][]float64 {
	n := len(data)
	if n == 0 {
		return nil
	}
	d := len(data[0])
	if mu == nil {
		mu = MeanVec(data)
	}
	cov := Zeros(d, d)
	for _, row := range data {
		for i := 0; i < d; i++ {
			di := row[i] - mu[i]
			for j := i; j < d; j++ {
				cov[i][j] += di * (row[j] - mu[j])
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] /= float64(n)
			cov[j][i] = cov[i][j]
		}
	}
	return cov
}

// Cholesky returns the lower-triangular L with A = L L^T, or ErrNotPD.
func Cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	l := Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrNotPD
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// CholeskyDet returns the determinant of A from its Cholesky factor L:
// det(A) = prod(L_ii)^2.
func CholeskyDet(l [][]float64) float64 {
	det := 1.0
	for i := range l {
		det *= l[i][i]
	}
	return det * det
}

// Regularize adds eps to the diagonal of a (in place) and returns it,
// the standard fix for near-singular covariance estimates.
func Regularize(a [][]float64, eps float64) [][]float64 {
	for i := range a {
		a[i][i] += eps
	}
	return a
}

// Mahalanobis2 returns the squared Mahalanobis distance of x from mu under
// covariance factor L (the Cholesky factor of the covariance):
// (x-mu)^T Sigma^-1 (x-mu).
func Mahalanobis2(x, mu []float64, l [][]float64) float64 {
	d := make([]float64, len(x))
	for i := range x {
		d[i] = x[i] - mu[i]
	}
	// Solve L z = d; distance is ||z||^2.
	n := len(l)
	z := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		s := d[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * z[k]
		}
		z[i] = s / l[i][i]
		sum += z[i] * z[i]
	}
	return sum
}

// GaussianLogPDF evaluates the log density of a multivariate normal with
// mean mu and Cholesky factor l of its covariance at x.
func GaussianLogPDF(x, mu []float64, l [][]float64) float64 {
	d := float64(len(x))
	m2 := Mahalanobis2(x, mu, l)
	logDet := 0.0
	for i := range l {
		logDet += math.Log(l[i][i])
	}
	return -0.5*m2 - logDet - 0.5*d*math.Log(2*math.Pi)
}
