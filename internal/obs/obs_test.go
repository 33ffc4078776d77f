package obs

import (
	"sync"
	"testing"
	"time"
)

func TestFakeClockAdvanceAndStep(t *testing.T) {
	c := NewFakeClock(time.Time{})
	t0 := c.Now()
	if got := c.Now(); !got.Equal(t0) {
		t.Fatalf("clock moved without Advance: %v vs %v", got, t0)
	}
	c.Advance(3 * time.Second)
	if got := c.Now().Sub(t0); got != 3*time.Second {
		t.Fatalf("Advance(3s) moved %v", got)
	}
	c.SetStep(time.Millisecond)
	a := c.Now()
	b := c.Now()
	if d := b.Sub(a); d != time.Millisecond {
		t.Fatalf("auto-step delta = %v, want 1ms", d)
	}
}

func TestSpanExactTiming(t *testing.T) {
	clock := NewFakeClock(time.Time{})
	r := NewWithClock(clock)
	sp := r.StartStage(StageINNScore)
	clock.Advance(5 * time.Millisecond)
	if d := sp.End(); d != 5*time.Millisecond {
		t.Fatalf("span duration = %v, want 5ms", d)
	}
	if n := r.StageCount(StageINNScore); n != 1 {
		t.Fatalf("stage count = %d, want 1", n)
	}
	if tot := r.StageTotal(StageINNScore); tot != 5*time.Millisecond {
		t.Fatalf("stage total = %v, want 5ms", tot)
	}
	// 5 ms falls in the (1ms, 10ms] bucket: cumulative counts must be 0
	// through the 1ms bound and 1 from the 10ms bound on.
	snap := r.Snapshot()
	if len(snap.Stages) != 1 || snap.Stages[0].Stage != "inn_score" {
		t.Fatalf("snapshot stages = %+v", snap.Stages)
	}
	for _, b := range snap.Stages[0].Buckets {
		want := int64(1)
		if !b.Inf && b.LESeconds < 0.005 {
			want = 0
		}
		if b.Count != want {
			t.Fatalf("bucket le=%v inf=%v count=%d, want %d", b.LESeconds, b.Inf, b.Count, want)
		}
	}
	if snap.Stages[0].MaxSeconds != 0.005 {
		t.Fatalf("max = %v, want 0.005", snap.Stages[0].MaxSeconds)
	}
}

func TestTraceAccumulatesExactTimings(t *testing.T) {
	clock := NewFakeClock(time.Time{})
	clock.SetStep(2 * time.Millisecond) // every Now() call advances 2ms
	r := NewWithClock(clock)
	tr := r.NewTrace()

	// Each span performs exactly two Now calls (start + end), so each
	// records exactly one step.
	tr.Do(StageCandidates, func() {})
	tr.Do(StageINNScore, func() {})
	sp := tr.Start(StageALRound)
	sp.End()
	sp = tr.Start(StageALRound)
	sp.End()

	tm := tr.Timings()
	if d := tm.Get(StageCandidates); d != 2*time.Millisecond {
		t.Fatalf("candidates = %v, want 2ms", d)
	}
	if d := tm.Get(StageINNScore); d != 2*time.Millisecond {
		t.Fatalf("inn_score = %v, want 2ms", d)
	}
	if d := tm.Get(StageALRound); d != 4*time.Millisecond {
		t.Fatalf("al_round = %v, want 4ms (two rounds)", d)
	}
	if tot := tm.Total(); tot != 8*time.Millisecond {
		t.Fatalf("total = %v, want 8ms", tot)
	}
	if n := r.StageCount(StageALRound); n != 2 {
		t.Fatalf("recorder al_round count = %d, want 2", n)
	}
	secs := tm.Seconds()
	if len(secs) != 3 || secs["al_round"] != 0.004 {
		t.Fatalf("Seconds() = %v", secs)
	}
}

func TestStageTimingsMergeAndBatchExclusion(t *testing.T) {
	var a, b StageTimings
	a[StageSanitize] = time.Second
	b[StageSanitize] = time.Second
	b[StageAssemble] = 2 * time.Second
	b[StageBatchSeries] = 10 * time.Second
	a.Merge(b)
	if a.Get(StageSanitize) != 2*time.Second || a.Get(StageAssemble) != 2*time.Second {
		t.Fatalf("merge = %v", a)
	}
	// Total excludes the batch wrapper span, which overlaps whole runs.
	if tot := a.Total(); tot != 4*time.Second {
		t.Fatalf("total = %v, want 4s", tot)
	}
}

func TestCountersGaugesReasons(t *testing.T) {
	r := New()
	r.Add(CounterCandidates, 7)
	r.Add(CounterCandidates, 3)
	r.Add(CounterOracleQueries, 2)
	if got := r.Count(CounterCandidates); got != 10 {
		t.Fatalf("candidates = %d", got)
	}
	r.AddGauge(GaugeBatchInFlight, 2)
	r.AddGauge(GaugeBatchInFlight, -1)
	if got := r.GaugeValue(GaugeBatchInFlight); got != 1 {
		t.Fatalf("gauge = %d", got)
	}
	r.SetGauge(GaugeStreamWindow, 512)
	if got := r.GaugeValue(GaugeStreamWindow); got != 512 {
		t.Fatalf("gauge set = %d", got)
	}
	r.Degraded("candidate explosion")
	r.Degraded("candidate explosion")
	r.Degraded("deadline")
	if got := r.Count(CounterDegradations); got != 3 {
		t.Fatalf("degradations = %d", got)
	}
	reasons := r.DegradeReasons()
	if reasons["candidate explosion"] != 2 || reasons["deadline"] != 1 {
		t.Fatalf("reasons = %v", reasons)
	}
	// The returned map is a copy.
	reasons["deadline"] = 99
	if r.DegradeReasons()["deadline"] != 1 {
		t.Fatal("DegradeReasons leaked internal state")
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Add(CounterCandidates, 1)
	r.AddGauge(GaugeBatchInFlight, 1)
	r.SetGauge(GaugeStreamWindow, 1)
	r.Degraded("x")
	r.Observe(StageSanitize, time.Second)
	sp := r.StartStage(StageSanitize)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if r.Count(CounterCandidates) != 0 || r.StageCount(StageSanitize) != 0 {
		t.Fatal("nil recorder recorded something")
	}
	if tr := r.NewTrace(); tr != nil {
		t.Fatal("nil recorder produced a trace")
	}
	var tr *Trace
	tr.Do(StageAssemble, func() {})
	tr.Add(CounterCandidates, 1)
	if sp := tr.Start(StageAssemble); sp.End() != 0 {
		t.Fatal("nil trace span measured time")
	}
	if tm := tr.Timings(); tm != (StageTimings{}) {
		t.Fatalf("nil trace timings = %v", tm)
	}
	if snap := r.Snapshot(); snap.Counters != nil || snap.Stages != nil {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if r.Clock() != Wall {
		t.Fatal("nil recorder clock != Wall")
	}
}

func TestStringers(t *testing.T) {
	if StageSanitize.String() != "sanitize" || StageBatchSeries.String() != "batch_series" {
		t.Fatal("stage names")
	}
	if CounterCandidates.String() != "candidates_total" || CounterStreamHopTimeouts.String() != "stream_hop_timeouts_total" {
		t.Fatal("counter names")
	}
	if GaugeStreamWindow.String() != "stream_window" {
		t.Fatal("gauge names")
	}
	if Stage(-1).String() != "unknown" || Counter(99).String() != "unknown" || Gauge(99).String() != "unknown" {
		t.Fatal("out-of-range stringers")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add(CounterCandidates, 1)
				r.Observe(Stage(i%int(NumStages)), time.Duration(i))
				r.Degraded("load")
				r.AddGauge(GaugeBatchInFlight, 1)
				r.AddGauge(GaugeBatchInFlight, -1)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Count(CounterCandidates); got != 4000 {
		t.Fatalf("candidates = %d, want 4000", got)
	}
	if got := r.Count(CounterDegradations); got != 4000 {
		t.Fatalf("degradations = %d, want 4000", got)
	}
	if got := r.GaugeValue(GaugeBatchInFlight); got != 0 {
		t.Fatalf("in-flight = %d, want 0", got)
	}
	var total int64
	for s := Stage(0); s < NumStages; s++ {
		total += r.StageCount(s)
	}
	if total != 4000 {
		t.Fatalf("observations = %d, want 4000", total)
	}
}
