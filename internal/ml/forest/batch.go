package forest

import (
	"runtime"
	"sync"
)

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

// TrainingProba returns the full-ensemble and the out-of-bag
// distribution of every training row, in PredictProbaBatch's layout. It
// walks no tree: training recorded the leaf each row lands in. Each row
// sums its trees' leaves in index order and a row every tree drew takes
// the full distribution as its out-of-bag one, so the results are
// bit-identical to PredictProbaBatch and PredictProbaOOBBatch over the
// training matrix. full and oob are reused when they have capacity, and
// must not share memory.
func (f *Forest) TrainingProba(full, oob []float64) ([]float64, []float64) {
	full, oob = f.grow(full, f.n), f.grow(oob, f.n)
	f.predict(Matrix{N: f.n}, full, oob)
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

// minBlockRows is the fewest rows an inference block takes: below it,
// starting and joining a goroutine costs more than the rows it takes
// off the caller.
const minBlockRows = 32

// predict fills the outputs for every row of m: both outputs are the
// training distributions, read from the recorded leaves (m then only
// carries the row count, see leafRows); one output walks m's rows down
// the trees (see predictRows). The rows are split into up to GOMAXPROCS
// contiguous blocks of at least minBlockRows rows; the caller's
// goroutine runs the first block and waits for the others. Blocks write
// disjoint ranges of the outputs and every row still sums its trees in
// index order, so the result is bit-identical at any block count.
func (f *Forest) predict(m Matrix, full, oob []float64) {
	n := m.N
	nb := min(runtime.GOMAXPROCS(0), n/minBlockRows)
	if nb <= 1 {
		f.rows(m, full, oob, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(nb - 1)
	for b := 1; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		go func() {
			defer wg.Done()
			f.rows(m, full, oob, lo, hi)
		}()
	}
	f.rows(m, full, oob, 0, n/nb)
	wg.Wait()
}

// rows runs predict's kernel for rows [lo, hi).
func (f *Forest) rows(m Matrix, full, oob []float64, lo, hi int) {
	if full != nil && oob != nil {
		f.leafRows(full, oob, lo, hi)
		return
	}
	f.predictRows(m, full, oob, lo, hi)
}

// leafRows fills rows [lo, hi) of the training distributions from the
// recorded leaves: each tree's leaf distribution is added to full, and
// to oob when the tree's bootstrap left the row out.
//
//cabd:hotpath
func (f *Forest) leafRows(full, oob []float64, lo, hi int) {
	k := f.numClasses
	clear(full[lo*k : hi*k])
	clear(oob[lo*k : hi*k])
	for t, tr := range f.trees {
		leaves, bag := f.leaves[t*f.n:(t+1)*f.n], f.inBag[t]
		for i := lo; i < hi; i++ {
			off := int(leaves[i])
			probs := tr.probs[off : off+k]
			addRow(full, i, probs)
			if !bag[i] {
				addRow(oob, i, probs)
			}
		}
	}
	scale(full[lo*k:hi*k], len(f.trees))
	for i := lo; i < hi; i++ {
		if voters := f.voters(i); voters > 0 {
			scale(oob[i*k:i*k+k], voters)
		} else {
			copy(oob[i*k:i*k+k], full[i*k:i*k+k])
		}
	}
}

// predictRows is the tree-major inference kernel over rows [lo, hi) of
// m for exactly one output; it writes only the rows' own slots. full
// receives the ensemble distribution of every row; oob the out-of-bag
// one, which falls back to the ensemble distribution for a row every
// tree saw. Only the trees that vote out-of-bag walk a row.
//
//cabd:hotpath
func (f *Forest) predictRows(m Matrix, full, oob []float64, lo, hi int) {
	k := f.numClasses
	if oob == nil {
		clear(full[lo*k : hi*k])
		for _, t := range f.trees {
			t.addLeaves(m, full, nil, lo, hi)
		}
		scale(full[lo*k:hi*k], len(f.trees))
		return
	}
	clear(oob[lo*k : hi*k])
	for ti, t := range f.trees {
		t.addLeaves(m, oob, f.inBag[ti], lo, hi)
	}
	for i := lo; i < hi; i++ {
		voters := f.voters(i)
		if voters == 0 {
			for _, t := range f.trees {
				addRow(oob, i, t.leafAt(m, i))
			}
			voters = len(f.trees)
		}
		scale(oob[i*k:i*k+k], voters)
	}
}

// addLeaves adds tree t's leaf distribution of every row in [lo, hi)
// to dst, or with a bag, of the rows its bootstrap left out (bag[i] is
// false). It stays a call per tree: inlined into predictRows's loop
// nest, the row walk measured slower.
//
//cabd:hotpath
func (t tree) addLeaves(m Matrix, dst []float64, bag []bool, lo, hi int) {
	if bag == nil {
		for i := lo; i < hi; i++ {
			addRow(dst, i, t.leafAt(m, i))
		}
		return
	}
	for i := lo; i < hi; i++ {
		if !bag[i] {
			addRow(dst, i, t.leafAt(m, i))
		}
	}
}

// voters counts the trees whose bootstrap left training row i out.
func (f *Forest) voters(i int) int {
	v := 0
	for _, bag := range f.inBag {
		if !bag[i] {
			v++
		}
	}
	return v
}

// addRow adds a leaf distribution into row i of a flat n×k output.
func addRow(dst []float64, i int, probs []float64) {
	out := dst[i*len(probs) : (i+1)*len(probs)]
	for c, p := range probs {
		out[c] += p
	}
}

// scale divides every value of blk by a vote count.
func scale(blk []float64, votes int) {
	inv := float64(votes)
	for i := range blk {
		blk[i] /= inv
	}
}
