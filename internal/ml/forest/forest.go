// Package forest implements a random forest classifier (bagged CART trees
// with per-split random feature subsets and Gini impurity), the default
// probabilistic classification algorithm of CABD [25]. Class probabilities
// are averaged leaf distributions across trees; CABD uses them directly as
// the confidence weights of Section IV and their complement as the
// uncertainty driving active learning (Equation 13).
//
// Trees are stored as flat preorder node arrays — the same layout the
// Snapshot wire form uses — so a row's walk reads contiguous memory
// instead of chasing heap pointers. Training sorts each feature column
// once and grows every tree over the distinct rows its bootstrap drew,
// each weighted by its draw count (see builder). While it builds a tree
// it records the leaf every training row lands in, so TrainingProba reads
// the full and out-of-bag distributions of the training rows without
// walking a tree; it splits the rows into contiguous blocks run on all
// cores, each row still summing its trees in index order. Rows the
// forest was not trained on are walked one at a time (PredictProba,
// PredictProbaBatch). Training fans the trees out over worker
// goroutines; every tree draws from a rand stream seeded from the
// caller's stream before the fan-out, so the ensemble is bit-identical
// at any worker count (Workers: 1 is the sequential differential
// oracle). Those per-tree streams are math/rand's generator, reseeded
// without division (see source).
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
	leaves     []int32  // per tree, n slots: the offset of training row i's leaf distribution in the tree's probs
	n          int      // training rows
	numClasses int
}

// tree is one CART tree as a flat preorder node array: nodes[0] is the
// root, children sit strictly after their parent. The leaves'
// distributions are consecutive blocks of probs, in preorder.
type tree struct {
	nodes []FlatNode
	probs []float64
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

// TrainWeighted fits a forest on X (rows are feature vectors) and y
// (class ids in [0, cfg.NumClasses)) with per-row sampling weights: each
// bootstrap draw picks row i with probability weights[i]/sum(weights).
// nil weights are uniform. rng drives bootstrap and feature sampling;
// pass a seeded source for reproducibility. Returns nil when the input
// is empty. Rows with higher weight steer the ensemble the way
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
		leaves:     make([]int32, cfg.Trees*n),
		n:          n,
	}
	// The in-bag masks share one backing array, as the leaf record does:
	// tree t owns slots [t*n, (t+1)*n) of both.
	bags := make([]bool, cfg.Trees*n)
	for t := range f.inBag {
		f.inBag[t] = bags[t*n : (t+1)*n : (t+1)*n]
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
			f.trees[t] = b.train(seeds[t], f.inBag[t], f.leaves[t*n:(t+1)*n])
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
				f.trees[t] = b.train(seeds[t], f.inBag[t], f.leaves[t*n:(t+1)*n])
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
// array at final size and one backing slice for the leaf distributions.
//
// A tree is grown over the distinct rows its bootstrap drew, each
// weighted by its draw count (cnt). The rows of a node are kept as one
// value-sorted segment per feature (seg), every drawn row once: the
// root's segments are the presorted orders without the rows the draw
// missed, and a split stably partitions the segments, so the children's
// segments stay sorted and the Gini sweep reads them in order — O(d·k)
// per node instead of a sort per candidate feature. The sweep adds a
// row's draw count where the expanded sample would add each copy, so
// every class count, node size, split and leaf is the one the expanded
// sample gives; it selects the split a sort would, because it scores
// only boundaries between distinct values, where the left class counts
// do not depend on the order within ties.
//
// The rows the bootstrap missed (oob) follow the splits too, so when a
// node becomes a leaf, every training row that reaches it is known, and
// the offset of the leaf's distribution goes into the tree's slice of
// the leaf record.
type builder struct {
	*trainSet
	rng *rand.Rand // over a source, re-seeded per tree

	cnt    []int32    // bootstrap multiplicity per row; 0 for out-of-bag rows
	stride int        // distinct rows the current tree drew: the length of each segment
	seg    []int32    // per feature, stride slots: the node-contiguous sorted segments
	oob    []int32    // the current tree's out-of-bag rows, node-contiguous
	spill  []int32    // stable-partition spill buffer
	left   []int32    // per row: 1 when the split being applied sends it left
	perm   []int      // per-node feature permutation
	nodes  []FlatNode // current tree under construction (preorder)
	probs  []float64  // leaf distributions of the current tree, in leaf order
	leaves []int32    // the current tree's leaf record: per row, its leaf's offset in probs
	lc     []int      // left class counts of the sweep
	tc     []int      // class counts of the node being built
}

func newBuilder(ts *trainSet) *builder {
	n, k := ts.m.N, ts.cfg.NumClasses
	return &builder{
		trainSet: ts,
		rng:      rand.New(new(source)),
		cnt:      make([]int32, n),
		// One pad slot takes the surplus write of train's compaction.
		seg:   make([]int32, len(ts.order)+1),
		oob:   make([]int32, n),
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

// train grows the tree seeded by seed: bootstrap-sample the rows, keep
// the presorted orders' drawn rows, then build the preorder node array.
// It fills bag (per row: drawn at least once) and leaves (per row: the
// offset of its leaf's distribution). The returned tree owns its nodes
// and distributions.
func (b *builder) train(seed int64, bag []bool, leaves []int32) tree {
	n := b.m.N
	b.rng.Seed(seed)
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
	}
	// Branch-free compactions: every row is written at the cursor, which
	// advances only past the rows kept. A surplus write lands on a slot
	// a later row, the next segment or the pad overwrites.
	nOOB := 0
	for i, c := range b.cnt {
		bag[i] = c > 0
		b.oob[nOOB] = int32(i)
		nOOB += b2i(c == 0)
	}
	b.stride = n - nOOB
	k := 0
	for s := 0; s < len(b.order); s += n {
		for _, r := range b.order[s : s+n] {
			b.seg[k] = r
			k += b2i(b.cnt[r] > 0)
		}
	}
	b.nodes, b.probs, b.leaves = b.nodes[:0], b.probs[:0], leaves
	b.build(0, b.stride, 0, nOOB, 0)
	nodes := make([]FlatNode, len(b.nodes))
	copy(nodes, b.nodes)
	probs := make([]float64, len(b.probs))
	copy(probs, b.probs)
	nc, off := b.cfg.NumClasses, 0
	for i := range nodes {
		if nodes[i].Probs != nil {
			nodes[i].Probs = probs[off : off+nc : off+nc]
			off += nc
		}
	}
	return tree{nodes: nodes, probs: probs}
}

// build appends the subtree over segment slots [lo, hi) and out-of-bag
// slots [olo, ohi) to b.nodes in preorder and returns its root index.
// Both are partitioned in place down the recursion; the segments are
// never empty.
func (b *builder) build(lo, hi, olo, ohi, depth int) int {
	at := len(b.nodes)
	// Any feature's segment holds the node's rows; count the first.
	for c := range b.tc {
		b.tc[c] = 0
	}
	size := 0
	for _, r := range b.seg[lo:hi] {
		c := int(b.cnt[r])
		b.tc[b.y[r]] += c
		size += c
	}
	if depth < b.cfg.MaxDepth && size > b.cfg.MinLeaf && !slices.Contains(b.tc, size) {
		if feat, thr, ok := b.bestSplit(lo, hi, size); ok {
			if nl, no := b.partition(lo, hi, olo, ohi, feat, thr); nl > 0 && nl < hi-lo {
				b.nodes = append(b.nodes, FlatNode{Left: -1, Right: -1})
				l := b.build(lo, lo+nl, olo, olo+no, depth+1)
				r := b.build(lo+nl, hi, olo+no, ohi, depth+1)
				nd := &b.nodes[at]
				nd.Feature, nd.Threshold, nd.Left, nd.Right = feat, thr, l, r
				return at
			}
		}
	}
	off := int32(len(b.probs))
	b.nodes = append(b.nodes, b.leaf(size))
	for _, r := range b.seg[lo:hi] {
		b.leaves[r] = off
	}
	for _, r := range b.oob[olo:ohi] {
		b.leaves[r] = off
	}
	return at
}

// leaf appends the class distribution of the node's size bootstrap rows
// (counted in b.tc) to b.probs, within the capacity reserved in
// newBuilder, and returns a leaf pointing at it.
func (b *builder) leaf(size int) FlatNode {
	off := len(b.probs)
	b.probs = b.probs[:off+b.cfg.NumClasses]
	probs := b.probs[off:]
	for c, cnt := range b.tc {
		probs[c] = float64(cnt) / float64(size)
	}
	return FlatNode{Left: -1, Right: -1, Probs: probs}
}

// bestSplit searches cfg.MTry random features for the Gini-optimal
// threshold, sweeping each feature's sorted segment across the
// boundaries between distinct values with integer class counts (b.tc
// holds the node's totals, size their sum). The feature subset is
// rand.Perm's draw, taken into scratch.
//
//cabd:hotpath
func (b *builder) bestSplit(lo, hi, size int) (int, float64, bool) {
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
		rows := b.seg[feat*b.stride+lo : feat*b.stride+hi]
		for c := range b.lc {
			b.lc[c] = 0
		}
		// NaN rows sort last; the sweep over numbers stops before them.
		end := len(rows)
		for end > 0 && math.IsNaN(col[rows[end-1]]) {
			end--
		}
		nl := 0
		prev := col[rows[0]]
		for v := 1; v < end; v++ {
			r := rows[v-1]
			c := int(b.cnt[r])
			b.lc[b.y[r]] += c
			nl += c
			cur := col[rows[v]]
			//cabd:lint-ignore floateq adjacent sorted feature values: only bit-identical ones admit no threshold between them
			if cur != prev {
				g := weightedGini(b.lc, nl) + weightedGiniRest(b.tc, b.lc, size-nl)
				if g < bestGini {
					bestGini, bestFeat, bestThr, found = g, feat, (cur+prev)/2, true
				}
			}
			prev = cur
		}
		if end == len(rows) {
			continue
		}
		// Past the last number every boundary of the expanded sample
		// scores, since NaN != NaN: the one after the last number and
		// the one between any two copies of a NaN row too. Each gives a
		// NaN threshold, which sends every row right, so winning makes
		// the node a leaf; it is still scored, because a later feature's
		// split can win only by beating it.
		if end > 0 {
			r := rows[end-1]
			b.lc[b.y[r]] += int(b.cnt[r])
			nl += int(b.cnt[r])
		}
		for _, r := range rows[end:] {
			for c := b.cnt[r]; c > 0; c-- {
				if nl > 0 {
					g := weightedGini(b.lc, nl) + weightedGiniRest(b.tc, b.lc, size-nl)
					if g < bestGini {
						bestGini, bestFeat, bestThr, found = g, feat, math.NaN(), true
					}
				}
				b.lc[b.y[r]]++
				nl++
			}
		}
	}
	return bestFeat, bestThr, found
}

// partition applies the split (<= thr left) to the node's slots [lo, hi)
// and out-of-bag slots [olo, ohi) and returns the left count of each.
// When the split leaves one side of the segments empty (the caller then
// makes a leaf), it moves nothing. Otherwise it stably partitions every
// other feature's segment, so both children's segments stay
// value-sorted, and the out-of-bag slots; the split feature's own
// segment already is partitioned, its left rows being a prefix.
//
//cabd:hotpath
func (b *builder) partition(lo, hi, olo, ohi, feat int, thr float64) (int, int) {
	col := b.m.Cols[feat]
	nl := 0
	for _, r := range b.seg[feat*b.stride+lo : feat*b.stride+hi] {
		l := b2i(col[r] <= thr)
		b.left[r] = int32(l)
		nl += l
	}
	if nl == 0 || nl == hi-lo {
		return nl, 0
	}
	for s := 0; s < len(b.order)/b.m.N; s++ {
		if s != feat {
			b.split(b.seg[s*b.stride+lo : s*b.stride+hi])
		}
	}
	oob := b.oob[olo:ohi]
	for _, r := range oob {
		b.left[r] = int32(b2i(col[r] <= thr))
	}
	return nl, b.split(oob)
}

// split stably moves the rows whose left flag is set to the front of
// rows and returns their count. It is branch-free: every row is written
// to both sides and only the cursor of its own side advances. rows[k]
// trails the read position, so the surplus writes land on slots
// rewritten later.
//
//cabd:hotpath
func (b *builder) split(rows []int32) int {
	k, j := 0, 0
	for _, r := range rows {
		l := int(b.left[r])
		rows[k] = r
		b.spill[j] = r
		k += l
		j += 1 - l
	}
	copy(rows[k:], b.spill[:j])
	return k
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
// TrainingProba's full distributions.
func (f *Forest) PredictProba(x []float64) []float64 {
	probs := make([]float64, f.numClasses)
	f.vote(x, -1, probs)
	return probs
}

// PredictProbaOOB returns the out-of-bag class distribution of training
// row i with features x: only trees whose bootstrap sample excluded row i
// vote, so the estimate is not self-fulfilling. When every tree saw the
// row (possible for heavily weighted rows), it falls back to the full
// ensemble. It is the per-row differential oracle for TrainingProba's
// out-of-bag distributions.
func (f *Forest) PredictProbaOOB(i int, x []float64) []float64 {
	probs := make([]float64, f.numClasses)
	f.vote(x, i, probs)
	return probs
}

// vote writes x's class distribution into out, which holds NumClasses
// values: the leaf distributions summed in tree-index order and divided
// by the voter count. With row < 0 every tree votes; otherwise only the
// trees whose bootstrap left training row `row` out, or every tree when
// none did.
func (f *Forest) vote(x []float64, row int, out []float64) {
	clear(out)
	voters := 0
	for t, tr := range f.trees {
		if row >= 0 && f.inBag[t][row] {
			continue
		}
		addRow(out, 0, tr.leafFor(x))
		voters++
	}
	switch {
	case voters > 0:
		scale(out, voters)
	case row >= 0:
		f.vote(x, -1, out)
	}
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
