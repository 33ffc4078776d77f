package core

import (
	"testing"
	"time"

	"cabd/internal/obs"
	"cabd/internal/oracle"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// stepRecorder returns a recorder on an auto-advancing FakeClock: every
// span measured on it lasts exactly step, so stage timings are asserted
// to the nanosecond instead of being bounded with sleeps.
func stepRecorder(step time.Duration) *obs.Recorder {
	clk := obs.NewFakeClock(time.Time{})
	clk.SetStep(step)
	return obs.NewWithClock(clk)
}

// TestUnsupervisedStageTimingsFakeClock pins the exact span structure of
// an unsupervised run: one span each for candidates, inn_score, bootstrap,
// classify and assemble — no sanitize (core is below the facade), no AL
// rounds — and a candidates counter equal to the surviving candidate set.
func TestUnsupervisedStageTimingsFakeClock(t *testing.T) {
	const step = time.Millisecond
	rec := stepRecorder(step)
	s := synth.YahooLike(7, 400)
	res := NewDetector(Options{Seed: 1, Obs: rec}).Detect(s)
	if len(res.Candidates) == 0 {
		t.Fatal("fixture produced no candidates; timing assertions are vacuous")
	}

	timed := []obs.Stage{
		obs.StageCandidates, obs.StageINNScore, obs.StageBootstrap,
		obs.StageClassify, obs.StageAssemble,
	}
	for _, st := range timed {
		if got := res.Stages.Get(st); got != step {
			t.Errorf("Stages.Get(%s) = %v, want exactly %v", st, got, step)
		}
		if got := rec.StageCount(st); got != 1 {
			t.Errorf("recorder span count for %s = %d, want 1", st, got)
		}
		if got := rec.StageTotal(st); got != step {
			t.Errorf("recorder total for %s = %v, want %v", st, got, step)
		}
	}
	for _, st := range []obs.Stage{obs.StageSanitize, obs.StageALRound, obs.StageBatchSeries} {
		if got := res.Stages.Get(st); got != 0 {
			t.Errorf("unexpected %s time %v in unsupervised core run", st, got)
		}
	}
	if got, want := res.Stages.Total(), time.Duration(len(timed))*step; got != want {
		t.Errorf("Stages.Total() = %v, want %v", got, want)
	}
	if got := rec.Count(obs.CounterCandidates); got != int64(len(res.Candidates)) {
		t.Errorf("candidates_total = %d, want %d", got, len(res.Candidates))
	}
	if got := rec.Count(obs.CounterOracleQueries); got != 0 {
		t.Errorf("oracle_queries_total = %d in unsupervised run", got)
	}
}

// slowLabeler answers from the simulated oracle after an hour on the
// fake clock, as a person would at a server session's pending query.
type slowLabeler struct {
	*oracle.Oracle
	clk *obs.FakeClock
}

func (l slowLabeler) Label(i int) series.Label {
	l.clk.Advance(time.Hour)
	return l.Oracle.Label(i)
}

// TestActiveStageTimingsFakeClock runs the CAL loop against a labeler
// that takes an hour per answer and checks the per-round span
// accounting: exactly one al_round span and one oracle-query count per
// consumed label, with the total run time equal to the five fixed stages
// plus one step per round. The labeler's wait is not the round's work.
func TestActiveStageTimingsFakeClock(t *testing.T) {
	const step = time.Millisecond
	clk := obs.NewFakeClock(time.Time{})
	clk.SetStep(step)
	rec := obs.NewWithClock(clk)
	s := synth.YahooLike(7, 400)
	o := oracle.New(s)
	res := NewDetector(Options{Seed: 1, MaxQueries: 10, Obs: rec}).DetectActive(s, slowLabeler{o, clk})
	if res.Queries == 0 {
		t.Fatal("active run consumed no labels; round assertions are vacuous")
	}
	if got := rec.StageCount(obs.StageALRound); got != int64(res.Queries) {
		t.Errorf("al_round span count = %d, want %d", got, res.Queries)
	}
	if got, want := res.Stages.Get(obs.StageALRound), time.Duration(res.Queries)*step; got != want {
		t.Errorf("al_round time = %v, want %v", got, want)
	}
	if got := rec.Count(obs.CounterOracleQueries); got != int64(res.Queries) {
		t.Errorf("oracle_queries_total = %d, want %d", got, res.Queries)
	}
	if o.Queries() != res.Queries {
		t.Errorf("oracle answered %d queries, result reports %d", o.Queries(), res.Queries)
	}
	if got, want := res.Stages.Total(), time.Duration(5+res.Queries)*step; got != want {
		t.Errorf("Stages.Total() = %v, want %v", got, want)
	}
}

// TestNilRecorderProducesNoTimings confirms the zero-overhead contract's
// observable half: without a recorder the result carries empty timings.
func TestNilRecorderProducesNoTimings(t *testing.T) {
	res := NewDetector(Options{Seed: 1}).Detect(synth.YahooLike(7, 400))
	if got := res.Stages.Total(); got != 0 {
		t.Errorf("nil-recorder run reports %v of stage time", got)
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if d := res.Stages.Get(st); d != 0 {
			t.Errorf("nil-recorder run timed %s: %v", st, d)
		}
	}
}
