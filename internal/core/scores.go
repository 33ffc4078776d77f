package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cabd/internal/inn"
	"cabd/internal/obs"
	"cabd/internal/sax"
	"cabd/internal/stats"
)

// scorer computes the score metric β (Algorithm 3) for candidates of one
// series over its channels: the raw values of a univariate series, or
// the standardized channels of a multivariate one. Every score it
// computes — SAX words (standardized per window), the variance ratio,
// the INN-derived sizes — is invariant under the affine standardization
// of Equation 2, so a univariate series is scored on its raw values and
// only the Computer (which measures distances in the standardized
// embedding) ever sees standardized data.
type scorer struct {
	opts  Options
	chans [][]float64 // one slice per channel, all of one length
	comp  *inn.Computer
	tlim  int // pruned search range

	// corpora holds the counted SAX words of each (channel, window
	// length) pair, at slot corpusSlot(channel, length); nil where no
	// candidate's correlation window reads that pair. buildCorpora
	// fills it once every neighborhood, and so every window, is known.
	corpora []*sax.Corpus

	// resolved is the neighborhood strategy scoring actually ran with.
	// scoreAll fixes it BEFORE the worker pool starts — the deadline
	// pilot's downgrade decision must never mutate shared option state
	// while workers are reading it — and score reports it on the Result.
	resolved Strategy

	// feats is the flat SoA feature matrix scoreAll fills index-aligned
	// with the candidate slice once every score is known. The classifier
	// trains and batch-infers over these columns; Candidate.features
	// stays as the row-major oracle.
	feats *featMatrix

	// clk times the deadline pilot. It comes from the run's obs recorder
	// (obs.Wall when none is installed), so a FakeClock recorder makes
	// the degradation trigger fully deterministic in tests.
	clk obs.Clock

	// forceDegrade makes the deadline pilot always downgrade, regardless
	// of the timing projection — a deterministic hook for the
	// feature-consistency tests (never set in production paths).
	forceDegrade bool
}

func newScorer(chans [][]float64, comp *inn.Computer, opts Options) *scorer {
	return &scorer{
		opts:     opts,
		comp:     comp,
		chans:    chans,
		tlim:     comp.RangeLimit(opts.RangeFrac),
		clk:      opts.Obs.Clock(),
		resolved: opts.Strategy,
	}
}

// The correlation window is centered on the candidate with a half-width
// tied to the pattern size, clamped to [minHalfWidth, maxHalfWidth], so
// no window is longer than maxWindow.
const (
	minHalfWidth = 3
	maxHalfWidth = 12
	maxWindow    = 2*maxHalfWidth + 1
)

// corpusSlot is the index in scorer.corpora of the corpus of channel k's
// length-w windows.
func corpusSlot(k, w int) int { return k*(maxWindow+1) + w }

// neighborhood returns the INN (or KNN) members of index i under
// strategy. The strategy travels as an argument, not scorer state, so
// the deadline pilot's downgrade can never race the worker pool.
func (sc *scorer) neighborhood(i int, strategy Strategy) []int {
	switch strategy {
	case LinearINN:
		return sc.comp.Minimal(i, sc.tlim)
	case MutualSetINN:
		return sc.comp.MutualSet(i, sc.tlim)
	case FixedKNN:
		return sc.comp.KNN(i, sc.opts.KNNK)
	default:
		return sc.comp.Binary(i, sc.tlim)
	}
}

// hull returns the contiguous index span [lo, hi] covering i and its
// neighborhood (the "pattern" P the correlation and variance scores
// operate on).
func hull(i int, nb []int) (lo, hi int) {
	lo, hi = i, i
	for _, j := range nb {
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	return lo, hi
}

// score fills in every score of candidate c that its neighborhood
// decides — the magnitude (Definition 5), the hull extents and
// asymmetry, the variance (Definition 9; see DESIGN.md for the
// interpretation notes), and the cross-channel decorrelation when there
// are two or more channels — but not the correlation, which reads a SAX
// corpus built only after every neighborhood is known (buildCorpora). It
// runs once per candidate inside the scoreAll worker pool and must not
// allocate: the variance score views the pattern's flanks through
// stats.Variance2 instead of materializing the cut window.
//
//cabd:hotpath
func (sc *scorer) score(c *Candidate, strategy Strategy) {
	n := len(sc.chans[0])
	c.INN = sc.neighborhood(c.Index, strategy)
	ss := len(c.INN)

	// Magnitude score (Definition 5): INN size over dataset size.
	c.Magnitude = float64(ss) / float64(n)

	lo, hi := hull(c.Index, c.INN)
	c.LeftExtent = c.Index - lo
	c.RightExtent = hi - c.Index
	if ext := c.LeftExtent + c.RightExtent; ext > 0 {
		c.Asymmetry = float64(absInt(c.RightExtent-c.LeftExtent)) / float64(ext)
	}

	c.Variance = sc.variance(lo, hi, ss)
	if len(sc.chans) >= 2 {
		c.XCorr = sc.xcorr(c.Index, ss)
	}
}

// corrWindow returns the window [lo, hi) of the correlation score
// (Definition 8): the frequency of the pattern's SAX word among all
// same-length windows of the channel that flagged candidate c. The
// window is centered on the candidate with a half-width tied to the
// pattern size: centering guarantees the word captures the local shape
// transition — spike, group boundary or level shift — rather than only
// the flat interior of a large one-sided hull. ok is false for a
// degenerate or series-scale window, which occurs everywhere and scores
// 1.
func (sc *scorer) corrWindow(c *Candidate) (lo, hi int, ok bool) {
	n := len(sc.chans[0])
	hw := min(max(len(c.INN), minHalfWidth), maxHalfWidth)
	lo, hi = max(c.Index-hw, 0), min(c.Index+hw+1, n)
	return lo, hi, hi-lo >= 2 && hi-lo <= n/2
}

// variance is the variance score (Definition 9, oriented as in
// hypothesis 3 and Fig. 3): the relative drop of the SPa standard
// deviation when the pattern [lo, hi] is removed. SPa is the pattern
// extended by max(ss, 3) adjacent points on each side. Over d channels σ
// is the square root of the mean per-channel variance; on one channel
// that is bit-identical to the plain standard deviation, because 0+x and
// x/1 are exact.
//
//cabd:hotpath
func (sc *scorer) variance(lo, hi, ss int) float64 {
	n := len(sc.chans[0])
	pad := ss
	if pad < 3 {
		pad = 3
	}
	slo, shi := lo-pad, hi+pad+1
	if slo < 0 {
		slo = 0
	}
	if shi > n {
		shi = n
	}
	d := float64(len(sc.chans))
	var vAll float64
	for _, ch := range sc.chans {
		vAll += stats.Variance(ch[slo:shi])
	}
	sdAll := math.Sqrt(vAll / d)
	if sdAll == 0 || (lo-slo)+(shi-hi-1) < 2 {
		return 0
	}
	var vRest float64
	for _, ch := range sc.chans {
		vRest += stats.Variance2(ch[slo:lo], ch[hi+1:shi])
	}
	vs := 1 - math.Sqrt(vRest/d)/sdAll
	if vs < 0 {
		vs = 0
	}
	if vs > 1 {
		vs = 1
	}
	return vs
}

// xcorr is the cross-channel decorrelation score at index over a window
// sized by the neighborhood (clamped to [8, 32] half-width): one minus
// the mean pairwise channel correlation, halved into [0, 1]. A fault in
// one channel of a correlated group breaks the local co-movement.
//
//cabd:hotpath
func (sc *scorer) xcorr(index, ss int) float64 {
	n := len(sc.chans[0])
	hw := ss
	if hw < 8 {
		hw = 8
	}
	if hw > 32 {
		hw = 32
	}
	lo, hi := index-hw, index+hw+1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi-lo < 4 {
		return 0
	}
	var sum float64
	var pairs int
	for a := 0; a < len(sc.chans); a++ {
		for b := a + 1; b < len(sc.chans); b++ {
			r := stats.Correlation(sc.chans[a][lo:hi], sc.chans[b][lo:hi])
			if math.IsNaN(r) {
				r = 0 // a constant window has no co-movement signal
			}
			sum += r
			pairs++
		}
	}
	x := (1 - sum/float64(pairs)) / 2
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return x
}

// scoreAll computes the metric for every candidate (the paper's
// Algorithm 3 computes the scores concurrently) in three steps:
//
//  1. a worker pool scores each candidate's neighborhood (score);
//  2. the same pool builds the SAX corpora the candidates' correlation
//     windows read, one per distinct (channel, window length) pair
//     (buildCorpora);
//  3. one pass reads each candidate's correlation from its corpus and
//     fills its feature row.
//
// No worker waits on another: step 1 reads no corpus, and step 2 builds
// each corpus exactly once. ctx is checked between candidates and
// between corpora, so cancellation propagates promptly.
//
// Graceful degradation 2: when ctx carries a deadline, a small pilot
// batch runs step 1 first with the configured strategy and its measured
// per-candidate cost is projected over the rest; if the projection eats
// more than half the remaining budget, scoring downgrades to the cheap
// FixedKNN neighborhood. Step 1 is the only work that downgrade can cut,
// so it is all the pilot times. The return value reports whether the
// downgrade happened.
func (sc *scorer) scoreAll(ctx context.Context, cands []Candidate) (degraded bool, err error) {
	sc.resolved = sc.opts.Strategy
	if len(cands) == 0 {
		return false, nil
	}
	workers := min(runtime.GOMAXPROCS(0), len(cands))
	if degraded, err = sc.scoreNeighborhoods(ctx, cands, workers); err != nil {
		return degraded, err
	}
	if err = sc.buildCorpora(ctx, cands, workers); err != nil {
		return degraded, err
	}
	sc.feats = getFeatMatrix(len(cands), featWidth(len(sc.chans)))
	for i := range cands {
		c := &cands[i]
		c.Correlation = 1
		if lo, hi, ok := sc.corrWindow(c); ok {
			c.Correlation = sc.corpora[corpusSlot(c.Channel, hi-lo)].Frequency(lo)
		}
		sc.feats.fill(i, c, &sc.opts)
	}
	return degraded, nil
}

// scoreNeighborhoods is scoreAll's step 1, the deadline pilot included.
func (sc *scorer) scoreNeighborhoods(ctx context.Context, cands []Candidate, workers int) (degraded bool, err error) {
	// strategy is resolved completely — pilot measurement, downgrade
	// decision, pilot re-score — before the worker pool starts. Workers
	// receive the final value; nothing they read is written afterwards.
	strategy := sc.opts.Strategy
	start := 0
	if deadline, ok := ctx.Deadline(); ok && strategy != FixedKNN {
		pilot := min(4, len(cands))
		t0 := sc.clk.Now()
		for i := 0; i < pilot; i++ {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			sc.score(&cands[i], strategy)
		}
		per := sc.clk.Now().Sub(t0) / time.Duration(pilot)
		rounds := (len(cands) - pilot + workers - 1) / workers
		start = pilot
		if projected := per * time.Duration(rounds); projected > deadline.Sub(sc.clk.Now())/2 || sc.forceDegrade {
			strategy = FixedKNN
			degraded = true
			// Re-score the pilot batch under the degraded strategy:
			// keeping its Binary-INN features would hand the classifier a
			// training set with mixed neighborhood semantics (the pilot's
			// Magnitude/extents mean something different from everyone
			// else's), skewing both the hypothesis bootstrap and the
			// confidence weights.
			start = 0
		}
	}
	sc.resolved = strategy
	rest := cands[start:]
	return degraded, runPool(ctx, workers, len(rest), func(i int) {
		sc.score(&rest[i], strategy)
	})
}

// buildCorpora is scoreAll's step 2: it builds, on up to workers
// goroutines, one SAX corpus for each distinct (channel, window length)
// pair the candidates' correlation windows read, and none for any other.
// A corpus costs about its window length per position, so the longest
// windows are built first and the short ones fill in behind them.
func (sc *scorer) buildCorpora(ctx context.Context, cands []Candidate, workers int) error {
	sc.corpora = make([]*sax.Corpus, len(sc.chans)*(maxWindow+1))
	jobs := sc.corpusJobs(cands)
	bp := sax.Breakpoints(saxAlphabet)
	return runPool(ctx, workers, len(jobs), func(j int) {
		k, w := jobs[j]/(maxWindow+1), jobs[j]%(maxWindow+1)
		sc.corpora[jobs[j]] = sax.NewCorpus(sc.chans[k], w, saxSegments, bp)
	})
}

// corpusJobs returns the corpus slot of every distinct (channel, window
// length) pair the candidates' correlation windows read, longest windows
// first.
func (sc *scorer) corpusJobs(cands []Candidate) []int {
	need := make([]bool, len(sc.chans)*(maxWindow+1))
	for i := range cands {
		if lo, hi, ok := sc.corrWindow(&cands[i]); ok {
			need[corpusSlot(cands[i].Channel, hi-lo)] = true
		}
	}
	var jobs []int
	for w := maxWindow; w >= 0; w-- {
		for k := range sc.chans {
			if need[corpusSlot(k, w)] {
				jobs = append(jobs, corpusSlot(k, w))
			}
		}
	}
	return jobs
}

// runPool runs job(0), ..., job(n-1) on up to workers goroutines and
// returns once all have finished. A worker checks ctx before each job and
// stops once it is done; runPool then returns ctx's error.
func runPool(ctx context.Context, workers, n int, job func(i int)) error {
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	if stopped.Load() {
		return ctx.Err()
	}
	return nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
