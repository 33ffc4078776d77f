package core

import (
	"context"
	"math"
	"runtime"
	"sync"
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
	opts    Options
	chans   [][]float64 // one slice per channel, all of one length
	comp    *inn.Computer
	tlim    int            // pruned search range
	corpora []*sax.Corpora // counted SAX words per channel and window length

	// resolved is the neighborhood strategy scoring actually ran with.
	// scoreAll fixes it BEFORE the worker pool starts — the deadline
	// pilot's downgrade decision must never mutate shared option state
	// while workers are reading it — and run() reports it on the Result.
	resolved Strategy

	// feats is the flat SoA feature matrix the scoreAll workers fill
	// index-aligned with the candidate slice (worker scoring candidate i
	// writes only row i). The classifier trains and batch-infers over
	// these columns; Candidate.features stays as the row-major oracle.
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
	corpora := make([]*sax.Corpora, len(chans))
	for k, ch := range chans {
		corpora[k] = sax.NewCorpora(ch, opts.SAXSegments, opts.SAXAlphabet)
	}
	return &scorer{
		opts:     opts,
		comp:     comp,
		chans:    chans,
		tlim:     comp.RangeLimit(opts.RangeFrac),
		corpora:  corpora,
		clk:      opts.Obs.Clock(),
		resolved: opts.Strategy,
	}
}

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

// score fills in the three INN scores of candidate c (Definitions 5, 8,
// 9; see DESIGN.md for the interpretation notes), plus the cross-channel
// decorrelation when there are two or more channels. It runs once per
// candidate inside the scoreAll worker pool and must not allocate: the
// variance score views the pattern's flanks through stats.Variance2
// instead of materializing the cut window.
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

	// Correlation score (Definition 8): frequency of the pattern's SAX
	// word among all same-length windows of the channel that flagged the
	// candidate. The window is centered on the candidate with a
	// half-width tied to the pattern size (clamped to [3, 12]):
	// centering guarantees the word captures the local shape transition
	// — spike, group boundary or level shift — rather than only the flat
	// interior of a large one-sided hull.
	hw := ss
	if hw < 3 {
		hw = 3
	}
	if hw > 12 {
		hw = 12
	}
	wlo, whi := c.Index-hw, c.Index+hw+1
	if wlo < 0 {
		wlo = 0
	}
	if whi > n {
		whi = n
	}
	if wlen := whi - wlo; wlen >= 2 && wlen <= n/2 {
		c.Correlation = sc.corpora[c.Channel].Frequency(wlo, whi)
	} else {
		// Degenerate or series-scale windows occur everywhere.
		c.Correlation = 1
	}

	c.Variance = sc.variance(lo, hi, ss)
	if len(sc.chans) >= 2 {
		c.XCorr = sc.xcorr(c.Index, ss)
	}
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

// scoreAll computes the metric for every candidate in parallel (the
// paper's Algorithm 3 computes the scores concurrently), checking ctx
// between candidates so cancellation propagates promptly.
//
// Graceful degradation 2: when ctx carries a deadline, a small pilot
// batch is scored first with the configured strategy and its measured
// per-candidate cost projected over the rest; if the projection eats
// more than half the remaining budget, scoring downgrades to the cheap
// FixedKNN neighborhood for the remaining candidates. The return value
// reports whether that happened.
func (sc *scorer) scoreAll(ctx context.Context, cands []Candidate) (degraded bool, err error) {
	sc.resolved = sc.opts.Strategy
	if len(cands) == 0 {
		return false, nil
	}
	sc.feats = getFeatMatrix(len(cands), featWidth(len(sc.chans)))
	workers := runtime.GOMAXPROCS(0)
	if sc.opts.SeqOracle {
		workers = 1
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	// strategy is resolved completely — pilot measurement, downgrade
	// decision, pilot re-score — before the worker pool starts. Workers
	// receive the final value; nothing they read is written afterwards.
	strategy := sc.opts.Strategy
	start := 0
	if deadline, ok := ctx.Deadline(); ok && strategy != FixedKNN {
		pilot := 4
		if pilot > len(cands) {
			pilot = len(cands)
		}
		t0 := sc.clk.Now()
		for i := 0; i < pilot; i++ {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			sc.score(&cands[i], strategy)
			sc.feats.fill(i, &cands[i], &sc.opts)
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
	var wg sync.WaitGroup
	ch := make(chan int, len(cands)-start)
	for i := start; i < len(cands); i++ {
		ch <- i
	}
	close(ch)
	var cancelled sync.Once
	var ctxErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				if e := ctx.Err(); e != nil {
					cancelled.Do(func() { ctxErr = e })
					return
				}
				sc.score(&cands[i], strategy)
				sc.feats.fill(i, &cands[i], &sc.opts)
			}
		}()
	}
	wg.Wait()
	return degraded, ctxErr
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
