package core

import (
	"sync"

	"cabd/internal/ml/forest"
)

// Classifier feature-vector widths: the paper's three INN scores plus
// the asymmetry extension (see Candidate.features) form the base
// layout; two or more channels append the cross-channel decorrelation
// column.
const (
	baseFeatures = 4
	maxFeatures  = 5
)

// featWidth resolves the feature-vector width for an input of the given
// channel count. The width changes the forest's RNG consumption, so it
// depends on the input's shape, never on its values: a univariate series
// always trains on the 4-feature layout.
func featWidth(channels int) int {
	if channels >= 2 {
		return maxFeatures
	}
	return baseFeatures
}

// featMatrix is the flat SoA classifier feature matrix: one
// index-aligned []float64 per feature, filled in place by scoreAll's
// last step, one pass over the scored candidates. The forest trains and
// batch-infers directly over the columns; Candidate.features stays as
// the row-major differential oracle. Only the first `width` columns are
// active; matrix() exposes exactly those.
type featMatrix struct {
	cols  [maxFeatures][]float64
	n     int
	width int
}

// featPool recycles feature-matrix buffers across detection runs so the
// steady-state scoring path keeps its zero-allocation property: a
// long-lived stream re-analyzing every hop reuses the same columns.
var featPool = sync.Pool{New: func() any { return new(featMatrix) }}

// getFeatMatrix returns a zeroed n-row, width-column matrix from the
// pool.
//
//cabd:hotpath
func getFeatMatrix(n, width int) *featMatrix {
	m := featPool.Get().(*featMatrix)
	m.n = n
	m.width = width
	for f := 0; f < width; f++ {
		if cap(m.cols[f]) < n {
			m.cols[f] = make([]float64, n)
			continue
		}
		m.cols[f] = m.cols[f][:n]
		col := m.cols[f]
		for i := range col {
			col[i] = 0
		}
	}
	return m
}

// putFeatMatrix returns m to the pool. The caller must not retain the
// forest.Matrix view past this call.
func putFeatMatrix(m *featMatrix) {
	if m != nil {
		featPool.Put(m)
	}
}

// matrix returns the forest-facing column view over the active width.
func (m *featMatrix) matrix() forest.Matrix {
	return forest.Matrix{Cols: m.cols[:m.width], N: m.n}
}

// fill writes candidate c's feature vector into row i under the
// ablation switches of opts — the SoA mirror of Candidate.features.
// Disabled features keep the zero the matrix was handed out with.
//
//cabd:hotpath
func (m *featMatrix) fill(i int, c *Candidate, opts *Options) {
	if !opts.DisableMagnitude {
		m.cols[0][i] = c.Magnitude
	}
	if !opts.DisableCorrelation {
		m.cols[1][i] = c.Correlation
	}
	if !opts.DisableVariance {
		m.cols[2][i] = c.Variance
	}
	m.cols[3][i] = c.Asymmetry
	if m.width > baseFeatures {
		m.cols[4][i] = c.XCorr
	}
}
