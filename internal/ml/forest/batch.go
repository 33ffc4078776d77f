package forest

// PredictProbaBatch computes the class distribution of every row of m in
// tree-major order: each tree's flat node array streams through all rows
// while it is hot in cache, instead of every row re-walking every tree.
// The result is one flat slice of m.N blocks of NumClasses probabilities
// (row i occupies [i*k, (i+1)*k)); dst is reused when it has capacity.
// Accumulation visits trees in index order per element, so every row is
// bit-identical to PredictProba on that row.
func (f *Forest) PredictProbaBatch(m Matrix, dst []float64) []float64 {
	dst = f.grow(dst, m.N)
	f.predict(m, dst, nil)
	return dst
}

// PredictProbaOOBBatch computes the out-of-bag distribution of every
// training row of m (which must be the matrix the forest was trained on:
// row i's votes come from the trees whose bootstrap excluded row i).
// Rows that every tree saw fall back to the full-ensemble distribution,
// exactly as PredictProbaOOB does per row. Layout and reuse semantics
// match PredictProbaBatch.
func (f *Forest) PredictProbaOOBBatch(m Matrix, dst []float64) []float64 {
	dst = f.grow(dst, m.N)
	f.predict(m, nil, dst)
	return dst
}

// PredictProbaAndOOB is PredictProbaBatch and PredictProbaOOBBatch in one
// pass: each (tree, row) leaf is found once and feeds both the full and
// the out-of-bag distribution. Each result is bit-identical to its
// single-purpose counterpart; full and oob are reused when they have
// capacity, and must not share memory.
func (f *Forest) PredictProbaAndOOB(m Matrix, full, oob []float64) ([]float64, []float64) {
	full, oob = f.grow(full, m.N), f.grow(oob, m.N)
	f.predict(m, full, oob)
	return full, oob
}

// grow returns dst resized to rows blocks of NumClasses values,
// reallocating only when its capacity is short.
func (f *Forest) grow(dst []float64, rows int) []float64 {
	need := rows * f.numClasses
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	return dst[:need]
}

// leafAt walks row i of m down to its leaf distribution.
func (t tree) leafAt(m Matrix, i int) []float64 {
	at := 0
	for t.nodes[at].Probs == nil {
		nd := &t.nodes[at]
		if m.Cols[nd.Feature][i] <= nd.Threshold {
			at = nd.Left
		} else {
			at = nd.Right
		}
	}
	return t.nodes[at].Probs
}

// predict is the tree-major inference kernel. Either output may be nil;
// each has m.N*NumClasses slots otherwise. full receives the ensemble
// distribution of every row; oob the out-of-bag one, which falls back
// to the ensemble distribution for a row every tree saw. Without full,
// only the trees that vote out-of-bag walk a row.
//
//cabd:hotpath
func (f *Forest) predict(m Matrix, full, oob []float64) {
	k := f.numClasses
	for i := range full {
		full[i] = 0
	}
	for i := range oob {
		oob[i] = 0
	}
	if len(f.trees) == 0 || m.N == 0 {
		return
	}
	for ti, t := range f.trees {
		switch {
		case oob == nil:
			for i := 0; i < m.N; i++ {
				addRow(full, i, t.leafAt(m, i))
			}
		case full == nil:
			bag := f.inBag[ti]
			for i := 0; i < m.N; i++ {
				if !bag[i] {
					addRow(oob, i, t.leafAt(m, i))
				}
			}
		default:
			bag := f.inBag[ti]
			for i := 0; i < m.N; i++ {
				probs := t.leafAt(m, i)
				addRow(full, i, probs)
				if !bag[i] {
					addRow(oob, i, probs)
				}
			}
		}
	}
	inv := float64(len(f.trees))
	for i := range full {
		full[i] /= inv
	}
	for i := 0; oob != nil && i < m.N; i++ {
		voters := 0
		for _, bag := range f.inBag {
			if !bag[i] {
				voters++
			}
		}
		out := oob[i*k : i*k+k]
		switch {
		case voters > 0:
			inv := float64(voters)
			for c := range out {
				out[c] /= inv
			}
		case full != nil:
			copy(out, full[i*k:i*k+k])
		default:
			for _, t := range f.trees {
				addRow(oob, i, t.leafAt(m, i))
			}
			for c := range out {
				out[c] /= inv
			}
		}
	}
}

// addRow adds a leaf distribution into row i of a flat n×k output.
func addRow(dst []float64, i int, probs []float64) {
	out := dst[i*len(probs) : (i+1)*len(probs)]
	for c, p := range probs {
		out[c] += p
	}
}
