package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cabd/internal/inn"
	"cabd/internal/ml/forest"
	"cabd/internal/obs"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// Labeler answers point-label queries during active learning. The
// simulated oracle of internal/oracle implements it; applications supply
// their own (e.g. prompting a human).
type Labeler interface {
	Label(i int) series.Label
}

// Detector runs CABD (Algorithm 2) over series. A Detector is stateless
// across series; it is cheap to construct.
type Detector struct {
	opts Options
}

// NewDetector returns a detector with opts (zero-value fields take the
// paper's defaults).
func NewDetector(opts Options) *Detector {
	return &Detector{opts: opts.defaults()}
}

// Options returns the resolved option set.
func (d *Detector) Options() Options { return d.opts }

// Detect runs the unsupervised pipeline: candidate estimation, score
// computation, rule-bootstrapped classification. No oracle is consulted.
func (d *Detector) Detect(s *series.Series) *Result {
	res, _ := d.DetectCtx(context.Background(), s)
	return res
}

// DetectActive runs the full interactive pipeline (Algorithm 2 with the
// CAL loop of Algorithm 4): after the unsupervised bootstrap, the most
// uncertain candidates are queried against the labeler until every
// confidence weight exceeds the configured γ or the query budget is
// exhausted.
func (d *Detector) DetectActive(s *series.Series, o Labeler) *Result {
	res, _ := d.DetectActiveCtx(context.Background(), s, o)
	return res
}

// DetectCtx is Detect with cancellation: ctx is checked at every stage
// boundary (candidate estimation, INN scoring, each classifier training
// round) and a cancelled or expired context returns ctx.Err() promptly.
// A context deadline also arms graceful degradation — see Result.Degraded.
func (d *Detector) DetectCtx(ctx context.Context, s *series.Series) (*Result, error) {
	return d.DetectChannelsCtx(ctx, [][]float64{s.Values}, nil)
}

// DetectActiveCtx is DetectActive with cancellation; the context is
// additionally checked between active-learning rounds, so a slow human
// labeler cannot wedge a cancelled run.
func (d *Detector) DetectActiveCtx(ctx context.Context, s *series.Series, o Labeler) (*Result, error) {
	return d.DetectChannelsCtx(ctx, [][]float64{s.Values}, o)
}

// DetectChannelsCtx runs CABD over chans: one or more equal-length
// value channels on one clock. One channel is a univariate series; two
// or more are the multivariate extension the paper's conclusion leaves
// as future work. o, when non-nil, answers the active-learning queries
// (Algorithm 4); nil runs the unsupervised pipeline.
//
// A univariate series is read raw — candidate estimation, SAX words and
// the variance ratio are affine-invariant — and only its 2-D
// (index, value) embedding, which the INN distances are measured in, is
// standardized (Equation 2). With two or more channels every channel is
// standardized, the embedding is (index, value_1..value_d), each
// candidate's correlation score reads the channel that flagged it, the
// classifier also receives the cross-channel decorrelation column, and
// an anomaly flagged by two or more channels within ±coocTol merges
// into the collective subtype (CAPA-style).
//
// Two graceful degradations apply: a candidate count above
// Options.DegradeCandidates switches to the fixed-k neighborhood, and so
// does a context deadline too close for the configured strategy.
func (d *Detector) DetectChannelsCtx(ctx context.Context, chans [][]float64, o Labeler) (*Result, error) {
	t := d.opts.Obs.NewTrace()
	if len(chans) == 0 || len(chans[0]) < 4 {
		return &Result{Strategy: d.opts.Strategy}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(chans) > 1 {
		std := make([][]float64, len(chans))
		for k, ch := range chans {
			std[k] = stats.Standardize(ch)
		}
		chans = std
	}

	// Step 1: candidate estimation.
	var cands []Candidate
	var hits []int
	t.Do(obs.StageCandidates, func() {
		cands, hits = candidates(chans, d.opts.CandidateZ)
	})
	if len(cands) == 0 {
		return &Result{Strategy: d.opts.Strategy, Stages: t.Timings()}, nil
	}

	var comp *inn.Computer
	if len(chans) == 1 {
		comp = inn.FromSeries(&series.Series{Values: stats.Standardize(chans[0])})
	} else {
		comp = inn.NewNComputer(embed(chans))
	}
	res, err := d.score(ctx, t, chans, comp, cands, o)
	if err != nil {
		return nil, err
	}
	// CAPA-style collective merge: an anomaly detection at an index
	// flagged by two or more channels is a cross-channel collective
	// anomaly, whatever its per-channel neighborhood size said.
	for i := range res.Anomalies {
		if hits != nil && hits[res.Anomalies[i].Index] >= 2 {
			res.Anomalies[i].Subtype = series.CollectiveAnomaly
		}
	}
	return res, nil
}

// embed builds (standardized index, v_1..v_d) rows, carved from one
// backing array so the embedding costs a constant number of allocations.
func embed(std [][]float64) [][]float64 {
	n, w := len(std[0]), 1+len(std)
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	sidx := stats.Standardize(idx)
	flat := make([]float64, n*w)
	pts := make([][]float64, n)
	for i := range pts {
		row := flat[i*w : (i+1)*w : (i+1)*w]
		row[0] = sidx[i]
		for k := range std {
			row[k+1] = std[k][i]
		}
		pts[i] = row
	}
	return pts
}

// score finishes a detection from estimated candidates: it scores them
// over chans (Algorithm 3), then runs the Score Evaluation and CAL
// stages (Algorithm 2 lines 4-5, Algorithm 4) and assembles the
// detections. comp indexes the embedding the neighborhoods are grown
// in; t is the run's trace (nil without a recorder), and the Result's
// Stages cover everything recorded on it.
func (d *Detector) score(ctx context.Context, t *obs.Trace, chans [][]float64, comp *inn.Computer, cands []Candidate, o Labeler) (*Result, error) {
	n := len(chans[0])
	t.Add(obs.CounterCandidates, int64(len(cands)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Graceful degradation 1: a candidate explosion (MAD collapse on
	// hostile input) makes per-candidate INN growth the dominant cost;
	// cap it by switching to the fixed-k neighborhood.
	opts := d.opts
	degradeReason := ""
	if bound := opts.DegradeCandidates; bound > 0 && len(cands) > bound && opts.Strategy != FixedKNN {
		opts.Strategy = FixedKNN
		degradeReason = fmt.Sprintf("candidate count %d exceeds bound %d", len(cands), bound)
	}

	// Step 2: score computation (parallel, Algorithm 3). The scorer may
	// degrade further when the context deadline leaves no headroom.
	sc := newScorer(chans, comp, opts)
	// The scorer's SoA feature matrix comes from a pool; hand it back
	// once evaluation no longer reads the columns.
	defer func() { putFeatMatrix(sc.feats) }()
	var deadlineDegraded bool
	var scoreErr error
	t.Do(obs.StageINNScore, func() {
		deadlineDegraded, scoreErr = sc.scoreAll(ctx, cands)
	})
	if scoreErr != nil {
		return nil, scoreErr
	}
	if deadlineDegraded && degradeReason == "" {
		degradeReason = "context deadline headroom too small for INN scoring"
	}

	res, err := d.evaluate(ctx, cands, n, o, t, sc.feats)
	if err != nil {
		return nil, err
	}
	res.Strategy = sc.resolved
	res.Degraded = degradeReason != ""
	res.DegradeReason = degradeReason
	if degradeReason != "" {
		d.opts.Obs.Degraded(degradeReason)
	}
	res.Stages = t.Timings()
	return res, nil
}

// evaluate runs the Score Evaluation and CAL stages over scored
// candidates: hypothesis bootstrap, probabilistic classification over
// the SoA feature matrix fm the scoring workers filled, and — when a
// labeler is supplied — the uncertainty-sampling loop until every
// confidence weight clears γ or the query budget runs out. ctx is
// checked before every random-forest training pass and between
// active-learning rounds. n is the series length (for magnitude-rule
// bookkeeping and index bounds).
func (d *Detector) evaluate(ctx context.Context, cands []Candidate, n int, o Labeler, t *obs.Trace, fm *featMatrix) (*Result, error) {
	res := &Result{Strategy: d.opts.Strategy}
	if len(cands) == 0 {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := fm.matrix()
	scr := &clsScratch{}
	rng := rand.New(rand.NewSource(d.opts.Seed))

	// Step 3: score evaluation — bootstrap pseudo-labels, then classify.
	var pseudo []Class
	t.Do(obs.StageBootstrap, func() {
		pseudo = bootstrapLabels(cands)
	})
	trueLabels := make(map[int]Class) // candidate position -> oracle class
	t.Do(obs.StageClassify, func() {
		d.classify(m, cands, pseudo, trueLabels, rng, scr)
	})
	res.Rounds = append(res.Rounds, snapshot(0, 0, cands))

	// Step 4: CAL active learning (Algorithm 4).
	if o != nil {
		budget := d.opts.MaxQueries
		if budget <= 0 {
			budget = n / 50 // ~2% of the series, the paper's average exposure
			if budget < 50 {
				budget = 50
			}
		}
		// Always explore a few labels before trusting the bootstrap:
		// when the hypothesis rules collapse to a single class (dense
		// anomaly regimes pollute the variance score), the ensemble is
		// unanimously — and wrongly — confident, and pure uncertainty
		// sampling would never fire. The paper's runs likewise always
		// consume a handful of queries (Table I: 4-5 on real data).
		minExplore := 3
		if minExplore > budget {
			minExplore = budget
		}
		queries := 0
		agreeStreak := 0
		for queries < budget {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pos := mostUncertain(cands)
			if pos < 0 {
				break
			}
			// Terminate on min(CW) > γ, but only once the model has
			// also been *right* about its last few queried points: a
			// confidently wrong ensemble (dense anomaly regimes) must
			// keep consuming labels until its answers stabilize.
			if cands[pos].Confidence > d.opts.Confidence &&
				queries >= minExplore && agreeStreak >= 3 {
				break
			}
			// The labeler answers outside the span: on a server session
			// its wait is a person's think time, not the round's compute.
			lbl := o.Label(cands[pos].Index)
			t.Do(obs.StageALRound, func() {
				predicted := cands[pos].Class
				queries++
				t.Add(obs.CounterOracleQueries, 1)
				cands[pos].Queried = true
				truth := classOfLabel(lbl)
				if truth == predicted {
					agreeStreak++
				} else {
					agreeStreak = 0
				}
				trueLabels[pos] = truth
				d.classify(m, cands, pseudo, trueLabels, rng, scr)
			})
			res.Rounds = append(res.Rounds, snapshot(queries, queries, cands))
		}
		res.Queries = queries
	}

	res.Candidates = cands
	t.Do(obs.StageAssemble, func() {
		d.assemble(res, n)
	})
	return res, nil
}

// clsScratch carries the classification buffers of one evaluation run.
// The interactive retraining loop calls classify once per
// active-learning round; reusing the label, weight and batch-inference
// buffers across rounds keeps the loop's steady state allocation-free
// outside the forest itself.
type clsScratch struct {
	y      []int
	w      []float64
	counts []float64
	full   []float64 // flat batch full-ensemble distributions
	oob    []float64 // flat batch out-of-bag distributions
}

// rowClassifier trains and applies a forest the way classify does, from
// the labels y and weights w it prepared. It is the seam through which
// tests swap in the sequential row-major reference (export_test.go); a
// Detector outside tests never holds one.
type rowClassifier func(d *Detector, cands []Candidate, width int, y []int, w []float64, cfg forest.Config, trueLabels map[int]Class, rng *rand.Rand)

// classify trains the random forest on the pseudo-labels overridden by
// oracle answers (true labels carry labelWeight sampling weight) and
// refreshes every candidate's class and confidence weight. Confidence is
// the out-of-bag probability, so it is not a self-fulfilling echo of the
// candidate's own training label; queried candidates keep their oracle
// label with full confidence.
//
// It trains over the SoA feature matrix with per-tree parallelism. The
// candidates are the training rows, so their full and out-of-bag
// distributions come from the leaves training recorded for them; no
// tree is walked again.
func (d *Detector) classify(m forest.Matrix, cands []Candidate, pseudo []Class, trueLabels map[int]Class, rng *rand.Rand, scr *clsScratch) {
	n := len(cands)
	if cap(scr.y) < n {
		scr.y = make([]int, n)
		scr.w = make([]float64, n)
	}
	y, w := scr.y[:n], scr.w[:n]
	if scr.counts == nil {
		scr.counts = make([]float64, NumClasses)
	}
	counts := scr.counts
	for c := range counts {
		counts[c] = 0
	}
	for i := range cands {
		if cls, ok := trueLabels[i]; ok {
			y[i] = int(cls)
		} else {
			y[i] = int(pseudo[i])
		}
		counts[y[i]]++
	}
	// Tempered (square-root) class balancing keeps minority classes — a
	// handful of change points among dozens of normal candidates — from
	// being squashed by the majority during bagging, without inflating
	// rare-class false positives; oracle labels are further upweighted.
	for i := range cands {
		w[i] = math.Sqrt(float64(n) / (float64(NumClasses) * counts[y[i]]))
		if _, ok := trueLabels[i]; ok {
			w[i] *= labelWeight
		}
	}
	cfg := forest.Config{
		Trees:      trees,
		MinLeaf:    3, // soft leaves: boundary candidates keep honest (<1) confidence
		NumClasses: NumClasses,
	}
	if d.opts.classifyRows != nil {
		(*d.opts.classifyRows)(d, cands, len(m.Cols), y, w, cfg, trueLabels, rng)
		return
	}
	fr := forest.TrainMatrixWeighted(m, y, w, cfg, rng)
	if fr == nil {
		return
	}
	scr.full, scr.oob = fr.TrainingProba(scr.full, scr.oob)
	for i := range cands {
		if cls, ok := trueLabels[i]; ok {
			cands[i].Class = cls
			cands[i].Confidence = 1
			continue
		}
		// Class from the full ensemble; confidence weight from the
		// out-of-bag probability of that class. A candidate that is the
		// lone example of its feature region keeps its hypothesis label
		// but shows near-zero OOB support, making it the first point
		// the active-learning loop asks the user about.
		full := scr.full[i*NumClasses : (i+1)*NumClasses]
		best, bi := -1.0, 0
		for c, p := range full {
			if p > best {
				best, bi = p, c
			}
		}
		cands[i].Class = Class(bi)
		cands[i].Confidence = scr.oob[i*NumClasses+bi]
	}
}

// mostUncertain returns the position of the unqueried candidate with the
// lowest confidence weight (highest uncertainty, Equation 13), or -1.
func mostUncertain(cands []Candidate) int {
	pos, best := -1, 2.0
	for i := range cands {
		if cands[i].Queried {
			continue
		}
		if cands[i].Confidence < best {
			best, pos = cands[i].Confidence, i
		}
	}
	return pos
}

// snapshot records the current predictions for the Table II traces.
func snapshot(round, queries int, cands []Candidate) RoundSnapshot {
	rs := RoundSnapshot{Round: round, Queries: queries, MinConfidence: 1}
	for i := range cands {
		c := &cands[i]
		if !c.Queried && c.Confidence < rs.MinConfidence {
			rs.MinConfidence = c.Confidence
		}
		switch c.Class {
		case ClassAnomaly:
			rs.Anomalies = append(rs.Anomalies, c.Index)
			for _, j := range c.INN {
				rs.Anomalies = append(rs.Anomalies, j)
			}
		case ClassChange:
			rs.ChangePoints = append(rs.ChangePoints, c.Index)
		}
	}
	rs.Anomalies = dedupInts(rs.Anomalies)
	rs.ChangePoints = dedupInts(rs.ChangePoints)
	return rs
}

// assemble expands classified candidates into the final detection lists:
// an anomaly candidate covers itself plus its INN members (a collective
// anomaly's interior points are not candidates themselves — the
// neighborhood carries them); a change-point candidate reports a single
// position, with nearby duplicates suppressed.
func (d *Detector) assemble(res *Result, n int) {
	anom := make(map[int]Detection)
	var changes []Detection
	for i := range res.Candidates {
		c := &res.Candidates[i]
		switch c.Class {
		case ClassAnomaly:
			sub := series.CollectiveAnomaly
			if len(c.INN) == 0 {
				sub = series.SingleAnomaly
			}
			add := func(j int) {
				if j < 0 || j >= n {
					return
				}
				if prev, ok := anom[j]; !ok || c.Confidence > prev.Confidence {
					anom[j] = Detection{Index: j, Class: ClassAnomaly,
						Subtype: sub, Confidence: c.Confidence}
				}
			}
			add(c.Index)
			// Expand to the neighborhood only when the pattern obeys
			// the paper's size rule (an abnormal pattern above 5% of
			// the dataset is not an anomaly) and its removal actually
			// matters locally; oversized or inert neighborhoods
			// contribute just the candidate point.
			if c.Magnitude < 0.05 && c.Variance >= 0.25 {
				for _, j := range c.INN {
					add(j)
				}
			}
		case ClassChange:
			changes = append(changes, Detection{Index: c.Index,
				Class: ClassChange, Subtype: series.ChangePoint,
				Confidence: c.Confidence})
		}
	}
	for _, det := range anom {
		res.Anomalies = append(res.Anomalies, det)
	}
	sort.Slice(res.Anomalies, func(a, b int) bool {
		return res.Anomalies[a].Index < res.Anomalies[b].Index
	})
	// Suppress change points within 2 positions of a stronger one.
	sort.Slice(changes, func(a, b int) bool {
		return changes[a].Confidence > changes[b].Confidence
	})
	taken := map[int]bool{}
	for _, det := range changes {
		blocked := false
		for off := -2; off <= 2; off++ {
			if taken[det.Index+off] {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		taken[det.Index] = true
		res.ChangePoints = append(res.ChangePoints, det)
	}
	sort.Slice(res.ChangePoints, func(a, b int) bool {
		return res.ChangePoints[a].Index < res.ChangePoints[b].Index
	})
}

func dedupInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, v := range xs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
