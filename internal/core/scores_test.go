package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"cabd/internal/inn"
	"cabd/internal/sax"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// scoreSeries runs candidate estimation and scoring on a raw series.
func scoreSeries(vals []float64, opts Options) []Candidate {
	opts = opts.defaults()
	std := stats.Standardize(vals)
	zs := &series.Series{Name: "t", Values: std}
	cands, _ := candidates([][]float64{std}, opts.CandidateZ)
	sc := newScorer([][]float64{std}, inn.FromSeries(zs), opts)
	sc.scoreAll(context.Background(), cands)
	return cands
}

func candidateAt(cands []Candidate, idx int) *Candidate {
	for i := range cands {
		if cands[i].Index == idx {
			return &cands[i]
		}
	}
	return nil
}

func noisyBase(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 0.15
	}
	return vals
}

func TestScoresSingleAnomaly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := noisyBase(rng, 800)
	vals[400] = 25
	c := candidateAt(scoreSeries(vals, Options{}), 400)
	if c == nil {
		t.Fatal("spike is not a candidate")
	}
	if c.Magnitude != 0 {
		t.Errorf("single anomaly MS = %v, want 0 (empty INN)", c.Magnitude)
	}
	if c.Variance < 0.5 {
		t.Errorf("single anomaly VS = %v, want high", c.Variance)
	}
}

func TestScoresCollectiveAnomaly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := noisyBase(rng, 800)
	for i := 400; i < 407; i++ {
		vals[i] = 25 + rng.NormFloat64()*0.1
	}
	c := candidateAt(scoreSeries(vals, Options{}), 400)
	if c == nil {
		t.Fatal("group edge is not a candidate")
	}
	if len(c.INN) < 4 || len(c.INN) > 10 {
		t.Errorf("collective INN size = %d, want ~6", len(c.INN))
	}
	if c.Magnitude <= 0 || c.Magnitude >= 0.05 {
		t.Errorf("collective MS = %v, want in (0, 0.05)", c.Magnitude)
	}
	if c.Variance < 0.5 {
		t.Errorf("collective VS = %v, want high", c.Variance)
	}
}

func TestScoresChangePoint(t *testing.T) {
	// AR-smooth base: a level shift's new segment must be locally
	// connected for its one-sided INN to grow (pure white noise has no
	// mutual temporal neighbors anywhere).
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 800)
	ar := 0.0
	for i := range vals {
		ar = 0.8*ar + rng.NormFloat64()*0.05
		vals[i] = ar
	}
	for i := 400; i < 800; i++ {
		vals[i] += 10
	}
	c := candidateAt(scoreSeries(vals, Options{}), 400)
	if c == nil {
		t.Fatal("level shift is not a candidate")
	}
	if c.Variance >= 0.25 {
		t.Errorf("change point VS = %v, want low", c.Variance)
	}
	if c.Asymmetry < 0.7 {
		t.Errorf("change point asymmetry = %v, want near 1", c.Asymmetry)
	}
	if c.RightExtent < 3 || c.LeftExtent > c.RightExtent/4+1 {
		t.Errorf("change extents L=%d R=%d, want one-sided to the right",
			c.LeftExtent, c.RightExtent)
	}
}

func TestScoresBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := noisyBase(rng, 600)
	vals[100] = 10
	for i := 300; i < 306; i++ {
		vals[i] = -12
	}
	for _, c := range scoreSeries(vals, Options{}) {
		if c.Magnitude < 0 || c.Magnitude > 1 {
			t.Errorf("MS out of range: %v", c.Magnitude)
		}
		if c.Correlation < 0 || c.Correlation > 1 {
			t.Errorf("CS out of range: %v", c.Correlation)
		}
		if c.Variance < 0 || c.Variance > 1 {
			t.Errorf("VS out of range: %v", c.Variance)
		}
		if c.Asymmetry < 0 || c.Asymmetry > 1 {
			t.Errorf("asymmetry out of range: %v", c.Asymmetry)
		}
	}
}

func TestAblationZeroesFeatures(t *testing.T) {
	c := Candidate{Magnitude: 0.3, Correlation: 0.4, Variance: 0.5, Asymmetry: 0.6}
	f := c.features(Options{DisableMagnitude: true, DisableVariance: true}, baseFeatures)
	if f[0] != 0 || f[1] != 0.4 || f[2] != 0 || f[3] != 0.6 {
		t.Errorf("ablated features = %v", f)
	}
	full := c.features(Options{}, baseFeatures)
	if full[0] != 0.3 || full[1] != 0.4 || full[2] != 0.5 || full[3] != 0.6 {
		t.Errorf("full features = %v", full)
	}
}

// TestDegradedPilotRescored is the regression test for the mixed-feature
// degradation bug: when the deadline pilot triggers the FixedKNN
// downgrade, the pilot candidates must be re-scored under the degraded
// strategy — every candidate's neighborhood, pilot batch included, must
// carry FixedKNN semantics so the classifier trains on one feature space.
func TestDegradedPilotRescored(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vals := noisyBase(rng, 900)
	for i := 200; i < 206; i++ {
		vals[i] = 18
	}
	vals[500] = -22
	for i := 700; i < 704; i++ {
		vals[i] = 15
	}
	opts := Options{}.defaults() // Strategy = BinaryINN
	std := stats.Standardize(vals)
	zs := &series.Series{Name: "deg", Values: std}
	cands, _ := candidates([][]float64{std}, opts.CandidateZ)
	if len(cands) <= 4 {
		t.Fatalf("need more than a pilot's worth of candidates, got %d", len(cands))
	}
	comp := inn.FromSeries(zs)
	sc := newScorer([][]float64{std}, comp, opts)
	sc.forceDegrade = true
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	degraded, err := sc.scoreAll(ctx, cands)
	if err != nil {
		t.Fatalf("scoreAll: %v", err)
	}
	if !degraded {
		t.Fatal("forced pilot degradation did not report degraded")
	}
	if sc.resolved != FixedKNN {
		t.Fatalf("resolved strategy = %v, want FixedKNN", sc.resolved)
	}
	// The downgrade decision must never write through to the shared
	// Options value the worker pool reads — the race the resolved field
	// exists to prevent.
	if sc.opts.Strategy != BinaryINN {
		t.Fatalf("degradation mutated shared options (Strategy = %v)", sc.opts.Strategy)
	}
	// Every candidate — pilot positions 0..3 included — must carry the
	// FixedKNN neighborhood, not a leftover Binary-INN one.
	for pos := range cands {
		want := comp.KNN(cands[pos].Index, opts.KNNK)
		if !reflect.DeepEqual(cands[pos].INN, want) {
			t.Errorf("candidate %d (index %d): INN = %v, want FixedKNN %v",
				pos, cands[pos].Index, cands[pos].INN, want)
		}
	}
}

func TestStrategiesAgreeOnCleanGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := noisyBase(rng, 600)
	for i := 300; i < 306; i++ {
		vals[i] = 20
	}
	for _, strat := range []Strategy{BinaryINN, LinearINN} {
		c := candidateAt(scoreSeries(vals, Options{Strategy: strat}), 300)
		if c == nil {
			t.Fatalf("strategy %v: no candidate at group edge", strat)
		}
		if c.Variance < 0.5 {
			t.Errorf("strategy %v: VS = %v", strat, c.Variance)
		}
	}
	// FixedKNN yields a constant-size neighborhood.
	c := candidateAt(scoreSeries(vals, Options{Strategy: FixedKNN, KNNK: 7}), 300)
	if c == nil || len(c.INN) != 7 {
		t.Errorf("FixedKNN neighborhood size = %v, want 7", c)
	}
}

// channelScorer builds a scorer over d channels of a 900-point series
// and the union of the channels' candidates, each owned by the first
// channel that flags it. Each channel carries groups of 1 to 9 points at
// its own offsets, so neighborhoods, and with them correlation window
// lengths, vary. One channel scores its raw values over the 2-D
// embedding, as Detect does; more score standardized channels over
// multi's N-D embedding.
func channelScorer(t *testing.T, d int) (*scorer, []Candidate) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(10 + d)))
	opts := Options{}.defaults()
	n := 900
	chans := make([][]float64, d)
	for k := range chans {
		vals := noisyBase(rng, n)
		for g, at := 1, 40+17*k; at+g < n-20; g, at = g%9+1, at+60 {
			for i := at; i < at+g; i++ {
				vals[i] = 20 + rng.NormFloat64()
			}
		}
		chans[k] = vals
	}
	seen := make([]bool, n)
	var cands []Candidate
	for k, ch := range chans {
		own, _ := candidates([][]float64{ch}, opts.CandidateZ)
		for _, c := range own {
			if !seen[c.Index] {
				seen[c.Index] = true
				c.Channel = k
				cands = append(cands, c)
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].Index < cands[b].Index })
	if d == 1 {
		zs := &series.Series{Values: stats.Standardize(chans[0])}
		return newScorer(chans, inn.FromSeries(zs), opts), cands
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i) / float64(n)}
	}
	for k, ch := range chans {
		chans[k] = stats.Standardize(ch)
		for i := range rows {
			rows[i] = append(rows[i], chans[k][i])
		}
	}
	return newScorer(chans, inn.NewNComputer(rows), opts), cands
}

// TestScoresBuildOneCorpusPerWindow: one scoring pass builds exactly one
// SAX corpus for each distinct (channel, window length) pair its
// candidates' correlation windows read, the longest windows first, and
// none for any other pair; every correlation equals a lookup in a corpus
// built on its own.
func TestScoresBuildOneCorpusPerWindow(t *testing.T) {
	for _, d := range []int{1, 3} {
		sc, cands := channelScorer(t, d)
		if _, err := sc.scoreAll(context.Background(), cands); err != nil {
			t.Fatalf("d=%d: scoreAll: %v", d, err)
		}
		used := map[int]bool{}
		lengths := map[int]bool{}
		channels := map[int]bool{}
		for i := range cands {
			c := &cands[i]
			lo, hi, ok := sc.corrWindow(c)
			if !ok {
				continue
			}
			used[corpusSlot(c.Channel, hi-lo)] = true
			lengths[hi-lo] = true
			channels[c.Channel] = true
			want := sax.NewCorpus(sc.chans[c.Channel], hi-lo, saxSegments, sax.Breakpoints(saxAlphabet)).Frequency(lo)
			if math.Float64bits(c.Correlation) != math.Float64bits(want) {
				t.Errorf("d=%d candidate %d: correlation %v, own corpus %v", d, c.Index, c.Correlation, want)
			}
		}
		if len(lengths) < 3 || len(channels) != d {
			t.Fatalf("d=%d: windows of %d lengths on %d channels; the fixture needs 3+ lengths on every channel", d, len(lengths), len(channels))
		}
		built := 0
		for slot, c := range sc.corpora {
			if (c != nil) != used[slot] {
				t.Errorf("d=%d channel %d length %d: built %v, read %v", d, slot/(maxWindow+1), slot%(maxWindow+1), c != nil, used[slot])
			}
			if c != nil {
				built++
			}
		}
		jobs := sc.corpusJobs(cands)
		if len(jobs) != len(used) || built != len(used) {
			t.Errorf("d=%d: %d jobs and %d corpora for %d distinct pairs", d, len(jobs), built, len(used))
		}
		for j := 1; j < len(jobs); j++ {
			if jobs[j]%(maxWindow+1) > jobs[j-1]%(maxWindow+1) {
				t.Errorf("d=%d: job %d builds length %d after length %d", d, j, jobs[j]%(maxWindow+1), jobs[j-1]%(maxWindow+1))
			}
		}
		t.Logf("d=%d: %d candidates, %d corpora over lengths %v", d, len(cands), built, lengths)
	}
}
