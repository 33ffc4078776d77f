// Package gmm implements a Gaussian Mixture Model fit with
// Expectation-Maximization. CABD's unsupervised bootstrap clusters
// candidate score vectors into four groups with a GMM (Section IV: "we use
// the unsupervised Gaussian Mixture clustering algorithm because it works
// nicely with clusters that are not round shaped") and assigns the labels
// {single anomaly, collective anomaly, change point, normal} to the groups
// from their observed characteristics (Figure 3).
package gmm

import (
	"math"
	"math/rand"

	"cabd/internal/ml/kmeans"
	"cabd/internal/ml/linalg"
)

// Model is a fitted mixture of k multivariate Gaussians over d dimensions.
type Model struct {
	Weights []float64     // mixing proportions, sum to 1
	Means   [][]float64   // k x d
	chol    [][][]float64 // Cholesky factors of the k covariances
}

// Config controls the EM fit.
type Config struct {
	K        int     // number of components (CABD uses 4)
	MaxIter  int     // EM iterations cap (default 100)
	Tol      float64 // log-likelihood convergence tolerance (default 1e-6)
	RegEps   float64 // covariance ridge (default 1e-6)
	Restarts int     // k-means++ restarts (default 1)
}

func (c *Config) defaults() {
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.Tol <= 0 {
		c.Tol = 1e-6
	}
	if c.RegEps <= 0 {
		c.RegEps = 1e-6
	}
	if c.Restarts <= 0 {
		c.Restarts = 1
	}
}

// Fit estimates a GMM over data (rows are observations) by EM initialized
// from k-means++. It returns the model with the best final log-likelihood
// across cfg.Restarts runs. rng makes runs reproducible.
func Fit(data [][]float64, cfg Config, rng *rand.Rand) *Model {
	cfg.defaults()
	n := len(data)
	if n == 0 || cfg.K <= 0 {
		return nil
	}
	if cfg.K > n {
		cfg.K = n
	}
	var best *Model
	bestLL := math.Inf(-1)
	for r := 0; r < cfg.Restarts; r++ {
		m, ll := fitOnce(data, cfg, rng)
		if m != nil && ll > bestLL {
			best, bestLL = m, ll
		}
	}
	return best
}

func fitOnce(data [][]float64, cfg Config, rng *rand.Rand) (*Model, float64) {
	n, d := len(data), len(data[0])
	k := cfg.K
	km := kmeans.Run(data, k, 50, rng)
	// Initialize parameters from the k-means partition.
	weights := make([]float64, k)
	means := make([][]float64, k)
	covs := make([][][]float64, k)
	groups := make([][][]float64, k)
	for i, row := range data {
		c := km.Assignment[i]
		groups[c] = append(groups[c], row)
	}
	for c := 0; c < k; c++ {
		if len(groups[c]) == 0 {
			groups[c] = [][]float64{data[rng.Intn(n)]}
		}
		weights[c] = float64(len(groups[c])) / float64(n)
		means[c] = linalg.MeanVec(groups[c])
		covs[c] = linalg.Regularize(linalg.Covariance(groups[c], means[c]), cfg.RegEps)
	}
	resp := linalg.Zeros(n, k)
	logComp := make([]float64, k)
	prevLL := math.Inf(-1)
	var chols [][][]float64
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Factor covariances, regularizing harder on failure.
		chols = make([][][]float64, k)
		for c := 0; c < k; c++ {
			l, err := linalg.Cholesky(covs[c])
			for tries := 0; err != nil && tries < 8; tries++ {
				covs[c] = linalg.Regularize(covs[c], math.Pow(10, float64(tries))*1e-5)
				l, err = linalg.Cholesky(covs[c])
			}
			if err != nil {
				return nil, math.Inf(-1)
			}
			chols[c] = l
		}
		// E-step.
		var ll float64
		for i, row := range data {
			for c := 0; c < k; c++ {
				logComp[c] = math.Log(weights[c]+1e-300) +
					linalg.GaussianLogPDF(row, means[c], chols[c])
			}
			lse := logSumExp(logComp)
			ll += lse
			for c := 0; c < k; c++ {
				resp[i][c] = math.Exp(logComp[c] - lse)
			}
		}
		// M-step.
		for c := 0; c < k; c++ {
			var nc float64
			for i := 0; i < n; i++ {
				nc += resp[i][c]
			}
			if nc < 1e-10 {
				// Collapse guard: re-seed on a random point.
				means[c] = append([]float64(nil), data[rng.Intn(n)]...)
				covs[c] = linalg.Regularize(linalg.Eye(d), 0)
				weights[c] = 1.0 / float64(n)
				continue
			}
			weights[c] = nc / float64(n)
			mu := make([]float64, d)
			for i, row := range data {
				for j, v := range row {
					mu[j] += resp[i][c] * v
				}
			}
			for j := range mu {
				mu[j] /= nc
			}
			means[c] = mu
			cov := linalg.Zeros(d, d)
			for i, row := range data {
				w := resp[i][c]
				for a := 0; a < d; a++ {
					da := row[a] - mu[a]
					for b := a; b < d; b++ {
						cov[a][b] += w * da * (row[b] - mu[b])
					}
				}
			}
			for a := 0; a < d; a++ {
				for b := a; b < d; b++ {
					cov[a][b] /= nc
					cov[b][a] = cov[a][b]
				}
			}
			covs[c] = linalg.Regularize(cov, cfg.RegEps)
		}
		if math.Abs(ll-prevLL) < cfg.Tol*(1+math.Abs(ll)) {
			prevLL = ll
			break
		}
		prevLL = ll
	}
	return &Model{Weights: weights, Means: means, chol: chols}, prevLL
}

// K returns the number of mixture components.
func (m *Model) K() int { return len(m.Weights) }

// Responsibilities returns P(component | x) for each component.
func (m *Model) Responsibilities(x []float64) []float64 {
	k := m.K()
	lc := make([]float64, k)
	for c := 0; c < k; c++ {
		lc[c] = math.Log(m.Weights[c]+1e-300) +
			linalg.GaussianLogPDF(x, m.Means[c], m.chol[c])
	}
	lse := logSumExp(lc)
	out := make([]float64, k)
	for c := 0; c < k; c++ {
		out[c] = math.Exp(lc[c] - lse)
	}
	return out
}

// Assign returns the most responsible component for x.
func (m *Model) Assign(x []float64) int {
	r := m.Responsibilities(x)
	best, bi := -1.0, 0
	for c, v := range r {
		if v > best {
			best, bi = v, c
		}
	}
	return bi
}

func logSumExp(xs []float64) float64 {
	mx := math.Inf(-1)
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - mx)
	}
	return mx + math.Log(s)
}
