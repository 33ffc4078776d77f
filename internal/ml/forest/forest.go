// Package forest implements a random forest classifier (bagged CART trees
// with per-split random feature subsets and Gini impurity), the default
// probabilistic classification algorithm of CABD [25]. Class probabilities
// are averaged leaf distributions across trees; CABD uses them directly as
// the confidence weights of Section IV and their complement as the
// uncertainty driving active learning (Equation 13).
//
// Trees are stored as flat preorder node arrays — the same layout the
// Snapshot wire form uses — so inference walks contiguous memory instead
// of chasing heap pointers, and PredictProbaBatch streams each tree
// through all rows of a column-major Matrix (tree-major order: the hot
// node array stays cached while rows advance); PredictProbaAndOOB fills
// the full and out-of-bag distributions in that one pass. Training sorts
// each feature column once and finds every split by sweeping presorted
// row segments (see builder). It fans the trees out over worker
// goroutines; every tree draws from a rand stream seeded from the
// caller's stream before the fan-out, so the ensemble is bit-identical
// at any worker count (Workers: 1 is the sequential differential
// oracle).
package forest

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
)

// Config controls forest training.
type Config struct {
	Trees      int // number of trees (default 100)
	MaxDepth   int // depth cap per tree (default 12)
	MinLeaf    int // minimum samples per leaf (default 1)
	MTry       int // features considered per split (default ceil(sqrt(d)))
	NumClasses int // required: size of the label space

	// Workers bounds the tree-building goroutines: 0 uses GOMAXPROCS,
	// 1 is the sequential oracle. The trained ensemble is bit-identical
	// at every setting — each tree draws from its own seed, split off
	// the caller's stream before any tree building starts.
	Workers int
}

func (c *Config) defaults(d int) {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MTry <= 0 {
		c.MTry = int(math.Ceil(math.Sqrt(float64(d))))
	}
	if c.MTry > d {
		c.MTry = d
	}
}

// Forest is a trained ensemble.
type Forest struct {
	trees      []tree
	inBag      [][]bool // per tree: was training row i in the bootstrap sample
	numClasses int
}

// tree is one CART tree as a flat preorder node array: nodes[0] is the
// root, children sit strictly after their parent.
type tree struct {
	nodes []FlatNode
}

// leafFor walks x down to its leaf distribution.
func (t tree) leafFor(x []float64) []float64 {
	at := 0
	for t.nodes[at].Probs == nil {
		n := &t.nodes[at]
		if x[n.Feature] <= n.Threshold {
			at = n.Left
		} else {
			at = n.Right
		}
	}
	return t.nodes[at].Probs
}

// Train fits a forest on X (rows are feature vectors) and y (class ids in
// [0, cfg.NumClasses)). rng drives bootstrap and feature sampling; pass a
// seeded source for reproducibility. Returns nil when the input is empty.
func Train(X [][]float64, y []int, cfg Config, rng *rand.Rand) *Forest {
	return TrainWeighted(X, y, nil, cfg, rng)
}

// TrainWeighted is Train with per-row sampling weights: each bootstrap
// draw picks row i with probability weights[i]/sum(weights). nil weights
// are uniform. Rows with higher weight steer the ensemble the way
// replicating them would, while keeping one row per example so out-of-bag
// estimates stay meaningful.
func TrainWeighted(X [][]float64, y []int, weights []float64, cfg Config, rng *rand.Rand) *Forest {
	if len(X) == 0 {
		return nil
	}
	return TrainMatrixWeighted(RowMajor(X), y, weights, cfg, rng)
}

// TrainMatrixWeighted is TrainWeighted over a column-major feature
// matrix — the native form of the scoring hot path, which fills one
// index-aligned column per feature. Each column is sorted once per call;
// every tree then finds its splits by sweeping those presorted rows (see
// builder). Returns nil on empty or inconsistent input.
func TrainMatrixWeighted(m Matrix, y []int, weights []float64, cfg Config, rng *rand.Rand) *Forest {
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
	var draw *guide
	if weights != nil {
		cum := make([]float64, n)
		var total float64
		for i, w := range weights {
			if w < 0 {
				w = 0
			}
			total += w
			cum[i] = total
		}
		if !(total <= 0) { // a NaN total samples too: draws match a binary search over cum
			draw = newGuide(cum)
		}
	}
	// Split one deterministic rand stream per tree off the caller's rng
	// BEFORE any tree building: tree t's draws depend only on seeds[t],
	// never on scheduling, so parallel training is bit-identical to the
	// sequential oracle at any GOMAXPROCS.
	seeds := make([]int64, cfg.Trees)
	for t := range seeds {
		seeds[t] = rng.Int63()
	}
	ts := &trainSet{m: m, y: y, cfg: cfg, order: presort(m), draw: draw}
	f := &Forest{
		numClasses: cfg.NumClasses,
		trees:      make([]tree, cfg.Trees),
		inBag:      make([][]bool, cfg.Trees),
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	if workers <= 1 {
		b := newBuilder(ts)
		for t := 0; t < cfg.Trees; t++ {
			f.trees[t], f.inBag[t] = b.train(seeds[t])
		}
		return f
	}
	ch := make(chan int, cfg.Trees)
	for t := 0; t < cfg.Trees; t++ {
		ch <- t
	}
	close(ch)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newBuilder(ts)
			for t := range ch {
				// Each slot is written by exactly one goroutine; the
				// deterministic merge is the tree index itself.
				f.trees[t], f.inBag[t] = b.train(seeds[t])
			}
		}()
	}
	wg.Wait()
	return f
}

// trainSet is the read-only input every tree builder of one training
// call shares.
type trainSet struct {
	m     Matrix
	y     []int
	cfg   Config
	order []int32 // per segment (see presort), rows in ascending value order
	draw  *guide  // weighted bootstrap sampler; nil draws rows uniformly
}

// presort returns, for every feature column, the row indices in
// ascending value order with NaN last, concatenated column by column. A
// matrix without columns still gets one segment (rows in index order) so
// the builder can count a node's classes. Order within ties is
// irrelevant: the split sweep scores only boundaries between distinct
// values.
func presort(m Matrix) []int32 {
	n := m.N
	segs := max(len(m.Cols), 1)
	order := make([]int32, segs*n)
	for s := 0; s < segs; s++ {
		ord := order[s*n : (s+1)*n]
		for i := range ord {
			ord[i] = int32(i)
		}
		if s < len(m.Cols) {
			col := m.Cols[s]
			slices.SortFunc(ord, func(a, b int32) int { return compareNaNLast(col[a], col[b]) })
		}
	}
	return order
}

// compareNaNLast orders floats ascending with NaN after every number.
// With NaN last, the rows a split sends left (v <= thr) are always a
// prefix of the split feature's sorted segment.
func compareNaNLast(a, b float64) int {
	if an, bn := math.IsNaN(a), math.IsNaN(b); an || bn {
		return cmp.Compare(b2i(an), b2i(bn))
	}
	return cmp.Compare(a, b)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// guide draws weighted bootstrap rows: given v, it returns the first
// index whose cumulative weight exceeds v (the last index when none
// does), exactly what a binary search over cum returns. A cut-point
// table maps v to a bucket and each bucket to the first row that can
// answer for it, so a draw is a short forward scan instead of log n
// probes.
type guide struct {
	cum   []float64
	start []int32 // per bucket: first row whose cumulative weight reaches the bucket
	scale float64 // buckets per unit of cumulative weight
}

func newGuide(cum []float64) *guide {
	g := &guide{cum: cum, start: make([]int32, len(cum))}
	// A non-finite total gives scale 0 or NaN, so every draw lands in
	// bucket 0 and scans from row 0; the scan still answers exactly.
	g.scale = float64(len(cum)) / cum[len(cum)-1]
	j := 0
	for i, c := range cum {
		for b := g.bucket(c); j <= b; j++ {
			g.start[j] = int32(i)
		}
	}
	for ; j < len(g.start); j++ {
		g.start[j] = int32(len(cum) - 1)
	}
	return g
}

// bucket maps a cumulative weight to its table slot. It is monotone
// non-decreasing in v, which is what makes start a safe lower bound:
// every row before start[bucket(v)] has a cumulative weight below v.
func (g *guide) bucket(v float64) int {
	x := v * g.scale
	if !(x >= 1) { // also NaN
		return 0
	}
	if x >= float64(len(g.start)) {
		return len(g.start) - 1
	}
	return int(x)
}

// search returns the first index whose cumulative weight exceeds v, or
// the last index.
func (g *guide) search(v float64) int {
	i, last := int(g.start[g.bucket(v)]), len(g.cum)-1
	for i < last && g.cum[i] <= v {
		i++
	}
	return i
}

// builder grows the trees of one worker. Its scratch is sized once from
// the training set, so a tree allocates only what outlives it: the node
// array at final size, one backing slice for the leaf distributions, and
// the in-bag mask.
//
// The rows of a node are kept as one value-sorted segment per feature
// (seg). The root's segments are the presorted orders expanded by the
// bootstrap multiplicities; a split stably partitions the segments, so
// the children's segments stay sorted and the Gini sweep reads them in
// order — O(d·k) per node instead of a sort per candidate feature. The
// sweep selects the same split as sorting would, because it scores only
// boundaries between distinct values, where the left class counts do not
// depend on the order within ties.
type builder struct {
	*trainSet
	rng *rand.Rand // re-seeded per tree

	cnt   []int32    // bootstrap multiplicity per row
	seg   []int32    // per feature, n slots: the node-contiguous sorted segments
	spill []int32    // stable-partition spill buffer
	left  []int32    // per row: 1 when the split being applied sends it left
	perm  []int      // per-node feature permutation
	nodes []FlatNode // current tree under construction (preorder)
	probs []float64  // leaf distributions of the current tree, in leaf order
	lc    []int      // left class counts of the sweep
	tc    []int      // class counts of the node being built
}

func newBuilder(ts *trainSet) *builder {
	n, k := ts.m.N, ts.cfg.NumClasses
	return &builder{
		trainSet: ts,
		rng:      rand.New(rand.NewSource(0)),
		cnt:      make([]int32, n),
		// Three pad slots take the surplus writes of train's expansion.
		seg:   make([]int32, len(ts.order), len(ts.order)+3),
		spill: make([]int32, n),
		left:  make([]int32, n),
		perm:  make([]int, len(ts.m.Cols)),
		// Every leaf holds at least one bootstrap row, so a tree has at
		// most n leaves and 2n-1 nodes.
		nodes: make([]FlatNode, 0, 2*n-1),
		probs: make([]float64, 0, n*k),
		lc:    make([]int, k),
		tc:    make([]int, k),
	}
}

// train grows the tree seeded by seed: bootstrap-sample the rows, expand
// the presorted orders by the sampled multiplicities, then build the
// preorder node array. The returned tree owns its nodes.
func (b *builder) train(seed int64) (tree, []bool) {
	n := b.m.N
	b.rng.Seed(seed)
	bag := make([]bool, n)
	for i := range b.cnt {
		b.cnt[i] = 0
	}
	for i := 0; i < n; i++ {
		var pick int
		if b.draw != nil {
			pick = b.draw.search(b.rng.Float64() * b.draw.cum[n-1])
		} else {
			pick = b.rng.Intn(n)
		}
		b.cnt[pick]++
		bag[pick] = true
	}
	// Expand the presorted orders by the multiplicities. Each row is
	// written to the next three slots and the cursor advances by its
	// count, so the loop does not branch on the (random) count; the
	// surplus writes land on slots the following rows, the next segment
	// or the pad past the last segment overwrite.
	seg := b.seg[:cap(b.seg)]
	for s := 0; s < len(b.order); s += n {
		k := s
		for _, r := range b.order[s : s+n] {
			c := int(b.cnt[r])
			seg[k], seg[k+1], seg[k+2] = r, r, r
			for j := 3; j < c; j++ {
				seg[k+j] = r
			}
			k += c
		}
	}
	b.nodes, b.probs = b.nodes[:0], b.probs[:0]
	b.build(0, n, 0)
	nodes := make([]FlatNode, len(b.nodes))
	copy(nodes, b.nodes)
	probs := make([]float64, len(b.probs))
	copy(probs, b.probs)
	k, off := b.cfg.NumClasses, 0
	for i := range nodes {
		if nodes[i].Probs != nil {
			nodes[i].Probs = probs[off : off+k : off+k]
			off += k
		}
	}
	return tree{nodes: nodes}, bag
}

// build appends the subtree over segment slots [lo, hi) to b.nodes in
// preorder and returns its root index. The segments are partitioned in
// place down the recursion; they are never empty.
func (b *builder) build(lo, hi, depth int) int {
	at := len(b.nodes)
	// Any feature's segment holds the node's rows; count the first.
	for c := range b.tc {
		b.tc[c] = 0
	}
	for _, r := range b.seg[lo:hi] {
		b.tc[b.y[r]]++
	}
	if depth >= b.cfg.MaxDepth || hi-lo <= b.cfg.MinLeaf || slices.Contains(b.tc, hi-lo) {
		b.nodes = append(b.nodes, b.leaf(hi-lo))
		return at
	}
	feat, thr, ok := b.bestSplit(lo, hi)
	if !ok {
		b.nodes = append(b.nodes, b.leaf(hi-lo))
		return at
	}
	nl := b.partition(lo, hi, feat, thr)
	if nl == 0 || nl == hi-lo {
		b.nodes = append(b.nodes, b.leaf(hi-lo))
		return at
	}
	b.nodes = append(b.nodes, FlatNode{Left: -1, Right: -1})
	l := b.build(lo, lo+nl, depth+1)
	r := b.build(lo+nl, hi, depth+1)
	nd := &b.nodes[at]
	nd.Feature, nd.Threshold, nd.Left, nd.Right = feat, thr, l, r
	return at
}

// leaf appends the class distribution of the node's k rows (counted in
// b.tc) to b.probs, within the capacity reserved in newBuilder, and
// returns a leaf pointing at it.
func (b *builder) leaf(k int) FlatNode {
	off := len(b.probs)
	b.probs = b.probs[:off+b.cfg.NumClasses]
	probs := b.probs[off:]
	for c, cnt := range b.tc {
		probs[c] = float64(cnt) / float64(k)
	}
	return FlatNode{Left: -1, Right: -1, Probs: probs}
}

// bestSplit searches cfg.MTry random features for the Gini-optimal
// threshold, sweeping each feature's sorted segment across the
// boundaries between distinct values with integer class counts (b.tc
// holds the node's totals). The feature subset is rand.Perm's draw,
// taken into scratch.
//
//cabd:hotpath
func (b *builder) bestSplit(lo, hi int) (int, float64, bool) {
	n, k := b.m.N, hi-lo
	perm := b.perm
	for i := range perm {
		j := b.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	bestGini := math.Inf(1)
	bestFeat, bestThr, found := 0, 0.0, false
	for _, feat := range perm[:b.cfg.MTry] {
		col := b.m.Cols[feat]
		rows := b.seg[feat*n+lo : feat*n+hi]
		for c := range b.lc {
			b.lc[c] = 0
		}
		prev := col[rows[0]]
		for v := 1; v < k; v++ {
			b.lc[b.y[rows[v-1]]]++
			cur := col[rows[v]]
			//cabd:lint-ignore floateq adjacent sorted feature values: only bit-identical ones admit no threshold between them
			if cur != prev {
				g := weightedGini(b.lc, v) + weightedGiniRest(b.tc, b.lc, k-v)
				if g < bestGini {
					bestGini, bestFeat, bestThr, found = g, feat, (cur+prev)/2, true
				}
			}
			prev = cur
		}
	}
	return bestFeat, bestThr, found
}

// partition applies the split (<= thr left) to the node's slots [lo, hi)
// and returns the left count. Unless one side is empty (the caller then
// makes a leaf), every other feature's segment is stably partitioned, so
// both children's segments stay value-sorted; the split feature's own
// segment already is partitioned, its left rows being a prefix.
//
//cabd:hotpath
func (b *builder) partition(lo, hi, feat int, thr float64) int {
	n := b.m.N
	col := b.m.Cols[feat]
	nl := 0
	for _, r := range b.seg[feat*n+lo : feat*n+hi] {
		l := b2i(col[r] <= thr)
		b.left[r] = int32(l)
		nl += l
	}
	if nl == 0 || nl == hi-lo {
		return nl
	}
	for s := 0; s < len(b.seg); s += n {
		if s == feat*n {
			continue
		}
		rows := b.seg[s+lo : s+hi]
		// Branch-free: every row is written to both sides and only the
		// cursor of its own side advances. rows[k] trails the read
		// position, so the surplus writes land on slots rewritten later.
		k, j := 0, 0
		for _, r := range rows {
			l := int(b.left[r])
			rows[k] = r
			b.spill[j] = r
			k += l
			j += 1 - l
		}
		copy(rows[k:], b.spill[:j])
	}
	return nl
}

func weightedGini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	var s float64
	for _, c := range counts {
		p := float64(c) / float64(n)
		s += p * p
	}
	return float64(n) * (1 - s)
}

// weightedGiniRest is weightedGini over the complement counts
// (total[c] - left[c]) without materializing them.
func weightedGiniRest(total, left []int, n int) float64 {
	if n == 0 {
		return 0
	}
	var s float64
	for c := range total {
		p := float64(total[c]-left[c]) / float64(n)
		s += p * p
	}
	return float64(n) * (1 - s)
}

// PredictProba returns the class probability distribution for x, averaged
// over all trees. It is the per-row differential oracle for
// PredictProbaBatch.
func (f *Forest) PredictProba(x []float64) []float64 {
	probs := make([]float64, f.numClasses)
	if len(f.trees) == 0 {
		return probs
	}
	for _, t := range f.trees {
		leaf := t.leafFor(x)
		for c, p := range leaf {
			probs[c] += p
		}
	}
	for c := range probs {
		probs[c] /= float64(len(f.trees))
	}
	return probs
}

// PredictProbaOOB returns the out-of-bag class distribution of training
// row i with features x: only trees whose bootstrap sample excluded row i
// vote, so the estimate is not self-fulfilling. When every tree saw the
// row (possible for heavily weighted rows), it falls back to the full
// ensemble. It is the per-row differential oracle for
// PredictProbaOOBBatch.
func (f *Forest) PredictProbaOOB(i int, x []float64) []float64 {
	probs := make([]float64, f.numClasses)
	voters := 0
	for t, tr := range f.trees {
		if f.inBag[t][i] {
			continue
		}
		leaf := tr.leafFor(x)
		for c, p := range leaf {
			probs[c] += p
		}
		voters++
	}
	if voters == 0 {
		return f.PredictProba(x)
	}
	for c := range probs {
		probs[c] /= float64(voters)
	}
	return probs
}

// Predict returns the most probable class for x.
func (f *Forest) Predict(x []float64) int {
	probs := f.PredictProba(x)
	best, bi := -1.0, 0
	for c, p := range probs {
		if p > best {
			best, bi = p, c
		}
	}
	return bi
}

// NumClasses returns the size of the label space the forest was trained on.
func (f *Forest) NumClasses() int { return f.numClasses }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }
