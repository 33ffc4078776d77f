package forest

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the sort-based tree builder the presorted kernel
// replaced, verbatim apart from its identifiers (refBuilder, refTrain).
// It re-sorts each node's (value, class) pairs per candidate feature and
// draws weighted bootstrap rows by binary search over the cumulative
// weights. It is the differential oracle of the production builder:
// core's sequential oracle (core.WithSeqOracle, in its tests) trains
// through the production builder too, so only this copy can catch a
// wrong split.

// refTrain is TrainMatrixWeighted as it stood before the presorted
// kernel, sequential only (the worker count never changes an ensemble).
func refTrain(m Matrix, y []int, weights []float64, cfg Config, rng *rand.Rand) *Forest {
	n := m.N
	if n == 0 || len(y) != n || cfg.NumClasses <= 0 || !m.valid() {
		return nil
	}
	if weights != nil && len(weights) != n {
		return nil
	}
	d := len(m.Cols)
	cfg.defaults(d)
	// Cumulative weights for sampling (shared, read-only across trees).
	var cum []float64
	if weights != nil {
		cum = make([]float64, n)
		var total float64
		for i, w := range weights {
			if w < 0 {
				w = 0
			}
			total += w
			cum[i] = total
		}
		if total <= 0 {
			cum = nil
		}
	}
	seeds := make([]int64, cfg.Trees)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	f := &Forest{
		numClasses: cfg.NumClasses,
		trees:      make([]tree, cfg.Trees),
		inBag:      make([][]bool, cfg.Trees),
	}
	b := newRefBuilder(m, y, cfg)
	for t := 0; t < cfg.Trees; t++ {
		f.trees[t], f.inBag[t] = b.train(cum, rand.New(rand.NewSource(seeds[t])))
	}
	return f
}

// searchCum returns the first index whose cumulative weight exceeds v.
func searchCum(cum []float64, v float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// splitPair is one (feature value, class) pair of the sorted split sweep.
type splitPair struct {
	v float64
	y int32
}

// refBuilder holds the per-goroutine scratch of tree construction so the
// training loop allocates only the nodes and leaf distributions that
// outlive it.
type refBuilder struct {
	m   Matrix
	y   []int
	cfg Config

	nodes []FlatNode  // current tree under construction (preorder)
	boot  []int       // bootstrap row indices
	part  []int       // stable-partition spill buffer
	pairs []splitPair // per-feature sorted (value, class) sweep
	lc    []int       // left class counts of the sweep
	tc    []int       // total class counts of the node under split
}

func newRefBuilder(m Matrix, y []int, cfg Config) *refBuilder {
	return &refBuilder{
		m: m, y: y, cfg: cfg,
		lc: make([]int, cfg.NumClasses),
		tc: make([]int, cfg.NumClasses),
	}
}

// train grows one tree: bootstrap-sample the rows with rng, then build
// the preorder node array. The returned tree owns its nodes.
func (b *refBuilder) train(cum []float64, rng *rand.Rand) (tree, []bool) {
	n := b.m.N
	bag := make([]bool, n)
	if cap(b.boot) < n {
		b.boot = make([]int, n)
	}
	idx := b.boot[:n]
	for i := range idx {
		var pick int
		if cum != nil {
			pick = searchCum(cum, rng.Float64()*cum[n-1])
		} else {
			pick = rng.Intn(n)
		}
		idx[i] = pick
		bag[pick] = true
	}
	b.nodes = make([]FlatNode, 0, 64)
	b.build(idx, rng, 0)
	return tree{nodes: b.nodes}, bag
}

// build appends the subtree over idx to b.nodes in preorder and returns
// its root index. idx is partitioned in place down the recursion.
func (b *refBuilder) build(idx []int, rng *rand.Rand, depth int) int {
	at := len(b.nodes)
	if depth >= b.cfg.MaxDepth || len(idx) <= b.cfg.MinLeaf || b.pure(idx) {
		b.nodes = append(b.nodes, b.leaf(idx))
		return at
	}
	feat, thr, ok := b.bestSplit(idx, rng)
	if !ok {
		b.nodes = append(b.nodes, b.leaf(idx))
		return at
	}
	li, ri := b.partition(idx, feat, thr)
	if len(li) == 0 || len(ri) == 0 {
		b.nodes = append(b.nodes, b.leaf(idx))
		return at
	}
	b.nodes = append(b.nodes, FlatNode{Left: -1, Right: -1})
	l := b.build(li, rng, depth+1)
	r := b.build(ri, rng, depth+1)
	nd := &b.nodes[at]
	nd.Feature, nd.Threshold, nd.Left, nd.Right = feat, thr, l, r
	return at
}

func (b *refBuilder) pure(idx []int) bool {
	if len(idx) == 0 {
		return true
	}
	first := b.y[idx[0]]
	for _, i := range idx[1:] {
		if b.y[i] != first {
			return false
		}
	}
	return true
}

func (b *refBuilder) leaf(idx []int) FlatNode {
	probs := make([]float64, b.cfg.NumClasses)
	if len(idx) == 0 {
		for c := range probs {
			probs[c] = 1 / float64(b.cfg.NumClasses)
		}
		return FlatNode{Left: -1, Right: -1, Probs: probs}
	}
	for _, i := range idx {
		probs[b.y[i]]++
	}
	for c := range probs {
		probs[c] /= float64(len(idx))
	}
	return FlatNode{Left: -1, Right: -1, Probs: probs}
}

// partition splits idx in place into (<= thr, > thr) halves, preserving
// relative order on both sides (a stable partition keeps the build
// deterministic and independent of the spill buffer's capacity).
func (b *refBuilder) partition(idx []int, feat int, thr float64) (li, ri []int) {
	col := b.m.Cols[feat]
	spill := b.part[:0]
	k := 0
	for _, i := range idx {
		if col[i] <= thr {
			idx[k] = i
			k++
		} else {
			spill = append(spill, i)
		}
	}
	copy(idx[k:], spill)
	b.part = spill[:0]
	return idx[:k], idx[k:]
}

// bestSplit searches cfg.MTry random features for the Gini-optimal
// threshold. Per feature it sorts the node's (value, class) pairs once
// and sweeps the class counts across the boundaries between distinct
// values — O(k log k) per feature instead of the naive O(k^2) recount —
// computing the exact same Gini (integer counts, identical float
// expressions) and therefore selecting the exact same split as the
// quadratic scan it replaces.
func (b *refBuilder) bestSplit(idx []int, rng *rand.Rand) (int, float64, bool) {
	d := len(b.m.Cols)
	feats := rng.Perm(d)[:b.cfg.MTry]
	bestGini := math.Inf(1)
	bestFeat, bestThr, found := 0, 0.0, false
	for c := range b.tc {
		b.tc[c] = 0
	}
	for _, i := range idx {
		b.tc[b.y[i]]++
	}
	if cap(b.pairs) < len(idx) {
		b.pairs = make([]splitPair, len(idx))
	}
	pairs := b.pairs[:len(idx)]
	for _, feat := range feats {
		col := b.m.Cols[feat]
		for p, i := range idx {
			pairs[p] = splitPair{v: col[i], y: int32(b.y[i])}
		}
		sort.Slice(pairs, func(a, c int) bool { return pairs[a].v < pairs[c].v })
		for c := range b.lc {
			b.lc[c] = 0
		}
		ln := 0
		for v := 1; v < len(pairs); v++ {
			b.lc[pairs[v-1].y]++
			ln++
			//cabd:lint-ignore floateq adjacent sorted feature values: only bit-identical ones admit no threshold between them
			if pairs[v].v == pairs[v-1].v {
				continue
			}
			thr := (pairs[v].v + pairs[v-1].v) / 2
			g := weightedGini(b.lc, ln) + weightedGiniRest(b.tc, b.lc, len(pairs)-ln)
			if g < bestGini {
				bestGini, bestFeat, bestThr, found = g, feat, thr, true
			}
		}
	}
	return bestFeat, bestThr, found
}

// diffCase draws one randomized training problem for the differential:
// row counts from 1 to 400; columns that are continuous, heavily tied
// (quantized to a few levels), constant, a mix of -0 and +0 with small
// integers, adjacent floats (whose midpoint rounds onto one of them) or
// huge magnitudes (whose midpoint overflows), the last two making splits
// that leave one side empty; weights that are nil, positive, zero on a
// share of the rows, or all zero. No column holds NaN: with NaN, `<` is
// not an ordering, so where the reference's sort.Slice leaves NaN rows
// depends on the sorting algorithm; the presorted kernel puts them last.
func diffCase(rng *rand.Rand) (Matrix, []int, []float64, Config) {
	n := 1 + rng.Intn(400)
	switch rng.Intn(4) {
	case 0:
		n = 1 + rng.Intn(8)
	case 1:
		n = 150 + rng.Intn(60)
	}
	d := rng.Intn(6) // d = 0 trains leaves only
	k := 1 + rng.Intn(4)
	cols := make([][]float64, d)
	for f := range cols {
		col := make([]float64, n)
		levels := float64(1 + rng.Intn(6))
		kind := rng.Intn(6)
		c := rng.NormFloat64()
		for i := range col {
			switch kind {
			case 0:
				col[i] = rng.NormFloat64()
			case 1:
				col[i] = math.Round(rng.Float64()*levels) / levels
			case 2:
				col[i] = c
			case 3:
				col[i] = 1
				for j := rng.Intn(3); j > 0; j-- {
					col[i] = math.Nextafter(col[i], 2)
				}
			case 4:
				col[i] = math.MaxFloat64 * (0.5 + rng.Float64()/2)
			default:
				switch v := rng.Intn(4); v {
				case 0:
					col[i] = math.Copysign(0, -1)
				default:
					col[i] = float64(v - 1)
				}
			}
		}
		cols[f] = col
	}
	y := make([]int, n)
	for i := range y {
		if d > 0 && rng.Intn(3) > 0 {
			// Class follows the first column, so trees really split.
			x := cols[0][i]
			if v := math.Abs(x) * float64(k); v < 1e9 {
				y[i] = int(v) % k
			} else {
				y[i] = int(math.Float64bits(x) % uint64(k))
			}
		} else {
			y[i] = rng.Intn(k)
		}
	}
	var w []float64
	switch rng.Intn(4) {
	case 1:
		w = make([]float64, n)
		for i := range w {
			w[i] = 0.1 + rng.Float64()*3
		}
	case 2:
		w = make([]float64, n)
		for i := range w {
			if rng.Intn(3) > 0 {
				w[i] = rng.ExpFloat64()
			}
		}
	case 3:
		w = make([]float64, n) // all zero: uniform draws
	}
	cfg := Config{
		Trees:      1 + rng.Intn(12),
		MinLeaf:    1 + rng.Intn(5),
		NumClasses: k,
		Workers:    rng.Intn(2),
	}
	if rng.Intn(2) == 0 {
		cfg.MaxDepth = 1 + rng.Intn(4)
	}
	if d > 0 && rng.Intn(3) == 0 {
		cfg.MTry = 1 + rng.Intn(d)
	}
	return Matrix{Cols: cols, N: n}, y, w, cfg
}

// TestPresortedMatchesReference is the split-search differential: on
// randomized inputs the presorted kernel must train the ensemble the
// sort-based reference trains, byte for byte in the Snapshot JSON
// (trees, thresholds, leaf distributions and in-bag masks).
func TestPresortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		m, y, w, cfg := diffCase(rng)
		seed := rng.Int63()
		got := TrainMatrixWeighted(m, y, w, cfg, rand.New(rand.NewSource(seed)))
		want := refTrain(m, y, w, cfg, rand.New(rand.NewSource(seed)))
		gb, err := json.Marshal(got.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		wb, err := json.Marshal(want.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("trial %d (n=%d d=%d cfg=%+v weighted=%v): ensemble differs from the reference",
				trial, m.N, len(m.Cols), cfg, w != nil)
		}
	}
}

// TestGuideMatchesSearchCum pins the cut-point sampler to the binary
// search it replaced, with v on, just below and just above every
// cumulative boundary, on weight vectors with zero-weight plateaus, a
// dominant row, a single row, and non-finite totals.
func TestGuideMatchesSearchCum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cums := [][]float64{{0.5}, {0, 0, 1}, {1, 1, 1, 2, 2, 3}, {1e-320, 2e-320}}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		cum := make([]float64, n)
		var total float64
		for i := range cum {
			w := rng.ExpFloat64()
			switch rng.Intn(4) {
			case 0:
				w = 0
			case 1:
				w = math.Round(w * 4)
			}
			if i == 0 && trial%5 == 0 {
				w = 1e9
			}
			total += w
			cum[i] = total
		}
		if total > 0 {
			cums = append(cums, cum)
		}
	}
	cums = append(cums, []float64{1, math.Inf(1), math.Inf(1)}, []float64{1, math.NaN(), math.NaN()})
	for _, cum := range cums {
		g := newGuide(cum)
		total := cum[len(cum)-1]
		probes := []float64{0, math.Copysign(0, -1), total, math.Nextafter(total, -1), total * 2, math.NaN(), math.Inf(1)}
		for _, c := range cum {
			probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, rng.Float64()*total)
		}
		for _, v := range probes {
			if got, want := g.search(v), searchCum(cum, v); got != want {
				t.Fatalf("cum %v, v %v: guide %d, binary search %d", cum, v, got, want)
			}
		}
	}
}
