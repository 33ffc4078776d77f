// Package multi extends CABD to multi-dimensional time series — the
// direction the paper's conclusion singles out as future work ("we plan
// to study how our techniques apply on multi-dimensional times series").
//
// The extension keeps every stage of the univariate pipeline and
// generalizes the geometry:
//
//   - points embed as (standardized index, standardized value_1, ...,
//     standardized value_d) and the INN is computed over that space with
//     the same per-offset mutual-rank bound and 5% prune;
//   - candidate estimation takes, per point, the strongest per-dimension
//     robust z-score of the absolute second difference;
//   - the magnitude and asymmetry features are dimension-free already;
//     the correlation score symbolizes the window of the dimension that
//     triggered the candidate; the variance score uses the total
//     (trace) standard deviation of the window;
//   - score evaluation, the GMM/rule bootstrap, the random forest and
//     the CAL loop are reused verbatim from internal/core.
package multi

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"cabd/internal/core"
	"cabd/internal/inn"
	"cabd/internal/obs"
	"cabd/internal/sax"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// Series is a d-dimensional, equally spaced time series: Dims holds d
// slices of equal length n. Labels, when non-nil, carries per-point
// ground truth shared across dimensions.
type Series struct {
	Name   string
	Dims   [][]float64
	Labels []series.Label
}

// NewSeries wraps dims (which must be non-empty and of equal lengths).
func NewSeries(name string, dims [][]float64) *Series {
	return &Series{Name: name, Dims: dims}
}

// Len returns the number of time steps (0 for an empty series).
func (s *Series) Len() int {
	if len(s.Dims) == 0 {
		return 0
	}
	return len(s.Dims[0])
}

// D returns the number of dimensions.
func (s *Series) D() int { return len(s.Dims) }

// LabelAt returns the ground-truth label of index i (Normal when
// unlabeled or out of range).
func (s *Series) LabelAt(i int) series.Label {
	if s.Labels == nil || i < 0 || i >= len(s.Labels) {
		return series.Normal
	}
	return s.Labels[i]
}

// AnomalyIndices returns the indices labeled as anomalies.
func (s *Series) AnomalyIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l.IsAnomaly() {
			out = append(out, i)
		}
	}
	return out
}

// ChangePointIndices returns the indices labeled as change points.
func (s *Series) ChangePointIndices() []int {
	var out []int
	for i, l := range s.Labels {
		if l == series.ChangePoint {
			out = append(out, i)
		}
	}
	return out
}

// Detector runs multivariate CABD. Options are the univariate option set;
// the Strategy field selects Binary (default), Linear INN or FixedKNN
// computation (MutualSetINN falls back to Binary in this extension).
// For d >= 2 channels the classifier additionally receives the
// cross-channel decorrelation feature (core.Candidate.XCorr) and
// detections co-occurring across channels merge into the collective
// subtype (CAPA-style); d = 1 keeps the exact univariate feature layout
// and detections.
type Detector struct {
	opts core.Options
	core *core.Detector // engine with the caller's feature layout (d = 1)
	x    *core.Detector // engine with the cross-channel column (d >= 2)
}

// NewDetector returns a multivariate detector.
func NewDetector(opts core.Options) *Detector {
	c := core.NewDetector(opts)
	xopts := c.Options()
	xopts.XChannelCorr = true
	return &Detector{opts: c.Options(), core: c, x: core.NewDetector(xopts)}
}

// Options returns the resolved option set.
func (d *Detector) Options() core.Options { return d.opts }

// Detect runs the unsupervised multivariate pipeline.
func (d *Detector) Detect(s *Series) *core.Result {
	res, _ := d.DetectCtx(context.Background(), s)
	return res
}

// DetectActive runs the pipeline with the CAL active-learning loop.
func (d *Detector) DetectActive(s *Series, o core.Labeler) *core.Result {
	res, _ := d.DetectActiveCtx(context.Background(), s, o)
	return res
}

// DetectCtx is Detect with cancellation: ctx is checked at stage
// boundaries and per candidate inside the scoring worker pool, and a
// cancelled context returns ctx.Err() promptly.
func (d *Detector) DetectCtx(ctx context.Context, s *Series) (*core.Result, error) {
	return d.run(ctx, s, nil)
}

// DetectActiveCtx is DetectActive with cancellation.
func (d *Detector) DetectActiveCtx(ctx context.Context, s *Series, o core.Labeler) (*core.Result, error) {
	return d.run(ctx, s, o)
}

// coocTol is the index tolerance for cross-channel co-occurrence: a
// candidate flagged within +-coocTol positions in at least two channels
// is a collective (multivariate) anomaly when it classifies as one.
const coocTol = 2

func (d *Detector) run(ctx context.Context, s *Series, o core.Labeler) (*core.Result, error) {
	t := d.opts.Obs.NewTrace()
	n := s.Len()
	if n < 4 || s.D() == 0 {
		return &core.Result{Strategy: d.opts.Strategy}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Standardize every dimension (Equation 2 per dimension).
	std := make([][]float64, s.D())
	for k, dim := range s.Dims {
		std[k] = stats.Standardize(dim)
	}

	// Per-channel candidate estimation: each channel's robust z of the
	// absolute second difference flags its own candidates; the union
	// (deduplicated by index, keeping the strongest z and the channel
	// that produced it) is the joint candidate set, and the per-channel
	// flags feed the co-occurrence merge below.
	var cands []core.Candidate
	zdim := make([]int, n)
	chHits := make([]int, n)
	t.Do(obs.StageCandidates, func() {
		zmax := make([]float64, n)
		flagged := make([][]bool, s.D())
		for k, dim := range std {
			d2 := series.SecondDiff(dim)
			rz := stats.RobustZ(d2)
			fl := make([]bool, n)
			for i, z := range rz {
				if z > zmax[i] {
					zmax[i] = z
					zdim[i] = k
				}
				if z > d.opts.CandidateZ {
					fl[i] = true
				}
			}
			flagged[k] = fl
		}
		for i, z := range zmax {
			if z > d.opts.CandidateZ {
				cands = append(cands, core.Candidate{Index: i, SecondDiffZ: z})
			}
		}
		if len(cands) > n/4 {
			cands = topByZ(cands, n/4)
		}
		// Co-occurrence counts: how many channels flag each index within
		// the tolerance window.
		for i := range chHits {
			for k := range flagged {
				for off := -coocTol; off <= coocTol; off++ {
					if j := i + off; j >= 0 && j < n && flagged[k][j] {
						chHits[i]++
						break
					}
				}
			}
		}
	})
	if len(cands) == 0 {
		res := &core.Result{Strategy: d.opts.Strategy}
		res.Stages = t.Timings()
		return res, nil
	}
	t.Add(obs.CounterCandidates, int64(len(cands)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Graceful degradation: a candidate explosion switches the joint
	// neighborhood to the fixed-k variant, mirroring the univariate path.
	strat := d.opts.Strategy
	degradeReason := ""
	if bound := d.opts.DegradeCandidates; bound > 0 && len(cands) > bound && strat != core.FixedKNN {
		strat = core.FixedKNN
		degradeReason = fmt.Sprintf("candidate count %d exceeds bound %d", len(cands), bound)
	}

	// Joint embedding and neighborhood computation.
	pts := embed(std)
	comp := inn.NewNComputer(pts)
	sc := &mscorer{
		opts:    d.opts,
		std:     std,
		comp:    comp,
		tlim:    comp.RangeLimit(d.opts.RangeFrac),
		corpora: make([]*sax.Corpora, len(std)),
	}
	for k, ch := range std {
		sc.corpora[k] = sax.NewCorpora(ch, d.opts.SAXSegments, d.opts.SAXAlphabet)
	}
	var scoreErr error
	t.Do(obs.StageINNScore, func() {
		scoreErr = sc.scoreAll(ctx, cands, strat, zdim)
	})
	if scoreErr != nil {
		return nil, scoreErr
	}
	eng := d.core
	if s.D() >= 2 {
		eng = d.x
	}
	res, err := eng.EvaluateCandidatesCtx(ctx, cands, n, o)
	if err != nil {
		return nil, err
	}
	// CAPA-style collective merge: an anomaly detection at an index
	// flagged by two or more channels is a cross-channel collective
	// anomaly, whatever its per-channel neighborhood size said.
	if s.D() >= 2 {
		for i := range res.Anomalies {
			if chHits[res.Anomalies[i].Index] >= 2 {
				res.Anomalies[i].Subtype = series.CollectiveAnomaly
			}
		}
	}
	res.Strategy = strat
	res.Degraded = degradeReason != ""
	res.DegradeReason = degradeReason
	if degradeReason != "" {
		d.opts.Obs.Degraded(degradeReason)
	}
	// EvaluateCandidatesCtx recorded its own stages; fold in this run's
	// candidate-estimation and scoring spans so Stages covers the whole
	// pipeline.
	res.Stages.Merge(t.Timings())
	return res, nil
}

// mscorer carries the shared state of one multivariate scoring pass.
// Workers write only their own candidate slot; the per-channel counted
// corpora are the only shared mutable structures, and they are safe for
// concurrent use (a table is a pure function of its channel and length).
type mscorer struct {
	opts    core.Options
	std     [][]float64
	comp    *inn.NComputer
	tlim    int
	corpora []*sax.Corpora // one per standardized channel
}

// scoreAll grows each candidate's neighborhood and fills its scores in
// parallel (one worker per GOMAXPROCS slot, one write-only slot per
// candidate — the same discipline as the univariate scoreAll, and
// bit-identical to the sequential pass Options.SeqOracle selects).
func (sc *mscorer) scoreAll(ctx context.Context, cands []core.Candidate, strat core.Strategy, zdim []int) error {
	workers := runtime.GOMAXPROCS(0)
	if sc.opts.SeqOracle {
		workers = 1
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	ch := make(chan int, len(cands))
	for i := range cands {
		ch <- i
	}
	close(ch)
	var wg sync.WaitGroup
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
				c := &cands[i]
				switch strat {
				case core.LinearINN:
					c.INN = sc.comp.Minimal(c.Index, sc.tlim)
				case core.FixedKNN:
					c.INN = sc.comp.KNN(c.Index, sc.opts.KNNK)
				default:
					c.INN = sc.comp.Binary(c.Index, sc.tlim)
				}
				sc.score(c, zdim[c.Index])
			}
		}()
	}
	wg.Wait()
	return ctxErr
}

// score fills the candidate's features from the multivariate geometry;
// trigger is the dimension whose second difference flagged the candidate.
func (sc *mscorer) score(c *core.Candidate, trigger int) {
	n := len(sc.std[0])
	ss := len(c.INN)
	c.Magnitude = float64(ss) / float64(n)
	lo, hi := c.Index, c.Index
	for _, j := range c.INN {
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	c.LeftExtent = c.Index - lo
	c.RightExtent = hi - c.Index
	if ext := c.LeftExtent + c.RightExtent; ext > 0 {
		diff := c.RightExtent - c.LeftExtent
		if diff < 0 {
			diff = -diff
		}
		c.Asymmetry = float64(diff) / float64(ext)
	}

	// Correlation score over the triggering dimension.
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
		c.Correlation = sc.corpora[trigger].Frequency(wlo, whi)
	} else {
		c.Correlation = 1
	}

	// Variance score: total (all-dimension) standard deviation drop.
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
	sdAll := totalStd(sc.std, slo, shi, -1, -1)
	sdRest := totalStd(sc.std, slo, shi, lo, hi+1)
	if sdAll == 0 {
		c.Variance = 0
	} else {
		vs := 1 - sdRest/sdAll
		if vs < 0 {
			vs = 0
		}
		if vs > 1 {
			vs = 1
		}
		c.Variance = vs
	}

	// Cross-channel decorrelation (d >= 2 only): the mean pairwise
	// channel correlation over the local window, mapped so that broken
	// co-movement — one channel deviating from an otherwise correlated
	// group — scores high.
	if len(sc.std) >= 2 {
		c.XCorr = sc.xcorr(c.Index, ss)
	}
}

// xcorr computes the cross-channel decorrelation score at index over a
// window sized by the neighborhood (clamped to [8, 32] half-width):
// (1 - mean pairwise correlation)/2 in [0, 1].
func (sc *mscorer) xcorr(index, ss int) float64 {
	n := len(sc.std[0])
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
	for a := 0; a < len(sc.std); a++ {
		for b := a + 1; b < len(sc.std); b++ {
			r := stats.Correlation(sc.std[a][lo:hi], sc.std[b][lo:hi])
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

// topByZ keeps the k strongest candidates (guard against MAD collapse).
func topByZ(cands []core.Candidate, k int) []core.Candidate {
	if k < 1 {
		k = 1
	}
	// Selection by straightforward sort; candidate counts are small.
	out := append([]core.Candidate(nil), cands...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].SecondDiffZ > out[i].SecondDiffZ {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if len(out) > k {
		out = out[:k]
	}
	// Restore index order.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Index < out[i].Index {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// embed builds (standardized index, v_1..v_d) rows.
func embed(std [][]float64) [][]float64 {
	n := len(std[0])
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	sidx := stats.Standardize(idx)
	pts := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 1+len(std))
		row[0] = sidx[i]
		for k := range std {
			row[k+1] = std[k][i]
		}
		pts[i] = row
	}
	return pts
}

// totalStd is the square root of the mean per-dimension variance of the
// window [lo, hi), excluding [exLo, exHi) when exLo >= 0.
func totalStd(std [][]float64, lo, hi, exLo, exHi int) float64 {
	var acc float64
	var dims int
	for _, dim := range std {
		var vals []float64
		for i := lo; i < hi; i++ {
			if exLo >= 0 && i >= exLo && i < exHi {
				continue
			}
			vals = append(vals, dim[i])
		}
		if len(vals) < 2 {
			return 0
		}
		acc += stats.Variance(vals)
		dims++
	}
	if dims == 0 {
		return 0
	}
	return math.Sqrt(acc / float64(dims))
}
