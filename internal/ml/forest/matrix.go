package forest

// Matrix is a column-major (structure-of-arrays) feature matrix:
// Cols[f][i] is feature f of row i. The scoring hot path fills one
// index-aligned column per feature, so training and tree-major batch
// inference stream through contiguous memory instead of chasing
// per-row slice headers. N is the row count; every column must have
// length N.
type Matrix struct {
	Cols [][]float64
	N    int
}

// RowMajor converts a row-major feature matrix (rows are feature
// vectors) into the column-major form. It is the bridge for callers
// that naturally produce rows; the detector's scoring pass fills
// columns directly.
func RowMajor(X [][]float64) Matrix {
	if len(X) == 0 {
		return Matrix{}
	}
	d := len(X[0])
	cols := make([][]float64, d)
	flat := make([]float64, d*len(X))
	for f := range cols {
		cols[f] = flat[f*len(X) : (f+1)*len(X)]
		for i, row := range X {
			cols[f][i] = row[f]
		}
	}
	return Matrix{Cols: cols, N: len(X)}
}

// NumFeatures returns the feature count (the number of columns).
func (m Matrix) NumFeatures() int { return len(m.Cols) }

// valid reports whether the matrix is rectangular with N rows.
func (m Matrix) valid() bool {
	for _, col := range m.Cols {
		if len(col) != m.N {
			return false
		}
	}
	return true
}
