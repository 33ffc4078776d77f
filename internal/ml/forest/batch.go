package forest

import (
	"runtime"
	"sync"
)

// PredictProbaBatch computes the class distribution of every row of m,
// each through PredictProba's walk, so every row is bit-identical to
// PredictProba on that row. The result is one flat slice of m.N blocks
// of NumClasses probabilities (row i occupies [i*k, (i+1)*k)); dst is
// reused when it has capacity.
func (f *Forest) PredictProbaBatch(m Matrix, dst []float64) []float64 {
	return f.batch(m, dst, false)
}

// PredictProbaOOBBatch computes the out-of-bag distribution of every
// training row of m (which must be the matrix the forest was trained on:
// row i's votes come from the trees whose bootstrap excluded row i),
// each through PredictProbaOOB's walk. Rows that every tree saw fall back
// to the full-ensemble distribution. Layout and reuse semantics match
// PredictProbaBatch.
func (f *Forest) PredictProbaOOBBatch(m Matrix, dst []float64) []float64 {
	return f.batch(m, dst, true)
}

// batch runs vote over every row of m, gathering each row into one
// scratch vector; with oob, row i votes as training row i.
func (f *Forest) batch(m Matrix, dst []float64, oob bool) []float64 {
	dst = f.grow(dst, m.N)
	k := f.numClasses
	x := make([]float64, len(m.Cols))
	for i := 0; i < m.N; i++ {
		for c, col := range m.Cols {
			x[c] = col[i]
		}
		row := -1
		if oob {
			row = i
		}
		f.vote(x, row, dst[i*k:(i+1)*k])
	}
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
	f.predict(full, oob)
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

// minBlockRows is the fewest rows an inference block takes: below it,
// starting and joining a goroutine costs more than the rows it takes
// off the caller.
const minBlockRows = 32

// predict fills the training distributions of every row from the
// recorded leaves. The rows are split into up to GOMAXPROCS contiguous
// blocks of at least minBlockRows rows; the caller's goroutine runs the
// first block and waits for the others. Blocks write disjoint ranges of
// the outputs and every row still sums its trees in index order, so the
// result is bit-identical at any block count.
func (f *Forest) predict(full, oob []float64) {
	n := f.n
	nb := min(runtime.GOMAXPROCS(0), n/minBlockRows)
	if nb <= 1 {
		f.leafRows(full, oob, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(nb - 1)
	for b := 1; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		go func() {
			defer wg.Done()
			f.leafRows(full, oob, lo, hi)
		}()
	}
	f.leafRows(full, oob, 0, n/nb)
	wg.Wait()
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
