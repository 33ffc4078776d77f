package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cabd/internal/inn"
	"cabd/internal/obs"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// clockScorer builds a scorer whose deadline pilot reads clk, plus the
// candidate set of a spiky series with well more than the 4 pilot
// candidates, so a post-pilot phase always exists.
func clockScorer(t *testing.T, clk obs.Clock) (*scorer, []Candidate) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	vals := noisyBase(rng, 900)
	for i := 80; i < 880; i += 40 {
		vals[i] = 25 + rng.NormFloat64()
	}
	opts := Options{Obs: obs.NewWithClock(clk)}.defaults()
	std := stats.Standardize(vals)
	zs := &series.Series{Name: "t", Values: std}
	cands, _ := candidates([][]float64{std}, opts.CandidateZ)
	if len(cands) <= 4 {
		t.Fatalf("fixture yields %d candidates, need >4 for a post-pilot phase", len(cands))
	}
	return newScorer([][]float64{std}, inn.FromSeries(zs), opts), cands
}

// TestDeadlinePilotDegradesOnFakeClock pins the degradation trigger with
// exact arithmetic instead of real elapsed time. scoreAll's pilot makes
// exactly three Now calls, so with a 40ms auto-advance step the measured
// per-candidate cost is step/4 = 10ms and the projection is at least one
// round (>= 10ms) for any worker count. Starting the clock 90ms before
// the deadline leaves 90-2*40 = 10ms of budget at the decision point,
// half of which (5ms) is below the projection: the scorer must downgrade
// to FixedKNN, on every machine, on every run.
func TestDeadlinePilotDegradesOnFakeClock(t *testing.T) {
	// The context deadline is far in the real future: only the fake
	// clock's view of the deadline is tight, so ctx itself never fires.
	deadline := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	for run := 0; run < 2; run++ {
		clk := obs.NewFakeClock(deadline.Add(-90 * time.Millisecond))
		clk.SetStep(40 * time.Millisecond)
		sc, cands := clockScorer(t, clk)
		degraded, err := sc.scoreAll(ctx, cands)
		if err != nil {
			t.Fatalf("run %d: scoreAll: %v", run, err)
		}
		if !degraded {
			t.Fatalf("run %d: pilot kept full strategy with a 10ms projection against a 5ms half-budget", run)
		}
		if sc.resolved != FixedKNN {
			t.Fatalf("run %d: resolved strategy = %v, want FixedKNN", run, sc.resolved)
		}
		if sc.opts.Strategy != BinaryINN {
			t.Fatalf("run %d: degradation mutated shared options (Strategy = %v)", run, sc.opts.Strategy)
		}
		for i := range cands {
			if cands[i].Variance < 0 || cands[i].Variance > 1 {
				t.Fatalf("run %d: candidate %d unscored after degradation (VS=%v)", run, i, cands[i].Variance)
			}
		}
	}
}

// TestDeadlinePilotRescoreFakeClock drives the degradation trigger with
// fake time (same 10ms-projection-vs-5ms-budget arithmetic as above) and
// pins the re-score semantics: after a clock-driven downgrade every
// candidate — the four pilot positions included — must carry the
// FixedKNN neighborhood, and every SoA feature-matrix row must equal
// the candidate's row-major feature vector. A pilot row left with its
// Binary-INN features, or a matrix row filled before the re-score,
// would hand the classifier mixed neighborhood semantics.
func TestDeadlinePilotRescoreFakeClock(t *testing.T) {
	deadline := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	clk := obs.NewFakeClock(deadline.Add(-90 * time.Millisecond))
	clk.SetStep(40 * time.Millisecond)
	sc, cands := clockScorer(t, clk)
	degraded, err := sc.scoreAll(ctx, cands)
	if err != nil {
		t.Fatalf("scoreAll: %v", err)
	}
	if !degraded {
		t.Fatal("fake-clock pilot did not degrade")
	}
	for pos := range cands {
		want := sc.comp.KNN(cands[pos].Index, sc.opts.KNNK)
		if !reflect.DeepEqual(cands[pos].INN, want) {
			t.Errorf("candidate %d (index %d): INN = %v, want FixedKNN %v",
				pos, cands[pos].Index, cands[pos].INN, want)
		}
		row := cands[pos].features(sc.opts, baseFeatures)
		for f := 0; f < baseFeatures; f++ {
			//cabd:lint-ignore floateq the SoA matrix contract is bit-identity with the row-major oracle
			if sc.feats.cols[f][pos] != row[f] {
				t.Errorf("candidate %d feature %d: matrix %v, row-major %v",
					pos, f, sc.feats.cols[f][pos], row[f])
			}
		}
	}
}

// TestDeadlinePilotKeepsStrategyWithHeadroom is the counterpart: the same
// 10ms/candidate fake cost against an hour of fake budget must not
// degrade, even in the worst single-worker projection.
func TestDeadlinePilotKeepsStrategyWithHeadroom(t *testing.T) {
	deadline := time.Now().Add(2 * time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	clk := obs.NewFakeClock(deadline.Add(-time.Hour))
	clk.SetStep(40 * time.Millisecond)
	sc, cands := clockScorer(t, clk)
	degraded, err := sc.scoreAll(ctx, cands)
	if err != nil {
		t.Fatalf("scoreAll: %v", err)
	}
	if degraded {
		t.Fatal("pilot degraded despite an hour of fake headroom")
	}
	if sc.resolved != BinaryINN {
		t.Fatalf("resolved strategy = %v, want BinaryINN untouched", sc.resolved)
	}
}

// TestDeadlinePilotBuildsNoCorpus: step 1 of scoring — the deadline
// pilot and the neighborhood pool — builds no SAX corpus, so the pilot
// times only the work a FixedKNN downgrade can cut, with exactly its
// three clock reads. The corpora come after, in step 2, untimed.
func TestDeadlinePilotBuildsNoCorpus(t *testing.T) {
	deadline := time.Now().Add(2 * time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	const step = 40 * time.Millisecond
	start := deadline.Add(-time.Hour)
	clk := obs.NewFakeClock(start)
	clk.SetStep(step)
	sc, cands := clockScorer(t, clk)
	degraded, err := sc.scoreNeighborhoods(ctx, cands, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatalf("step 1: %v", err)
	}
	if degraded {
		t.Fatal("pilot degraded despite an hour of fake headroom")
	}
	if sc.corpora != nil || sc.feats != nil {
		t.Fatalf("step 1 built %d corpus slots and a %v feature matrix", len(sc.corpora), sc.feats != nil)
	}
	clk.SetStep(0)
	if got := clk.Now(); !got.Equal(start.Add(3 * step)) {
		t.Fatalf("pilot read the clock %d times, want 3", int(got.Sub(start)/step))
	}
	clk.SetStep(step)
	if err := sc.buildCorpora(ctx, cands, runtime.GOMAXPROCS(0)); err != nil {
		t.Fatalf("step 2: %v", err)
	}
	built := 0
	for _, c := range sc.corpora {
		if c != nil {
			built++
		}
	}
	if built == 0 {
		t.Fatal("step 2 built no corpus")
	}
	if got := clk.Now(); !got.Equal(start.Add(3 * step)) {
		t.Fatalf("step 2 read the clock %d times, want 0", int(got.Sub(start.Add(3*step))/step))
	}
}
