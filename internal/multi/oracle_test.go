package multi

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cabd/internal/core"
	"cabd/internal/obs"
	"cabd/internal/series"
)

// resultFingerprint flattens everything detection-relevant about a
// result into a comparable string: indices, classes, subtypes and exact
// confidence bits, plus the scored candidate features.
func resultFingerprint(r *core.Result) string {
	out := fmt.Sprintf("strat=%v degraded=%v;", r.Strategy, r.Degraded)
	for _, d := range r.Anomalies {
		out += fmt.Sprintf("a(%d,%v,%v,%b);", d.Index, d.Class, d.Subtype, d.Confidence)
	}
	for _, d := range r.ChangePoints {
		out += fmt.Sprintf("c(%d,%b);", d.Index, d.Confidence)
	}
	for _, c := range r.Candidates {
		out += fmt.Sprintf("k(%d,%b,%b,%b,%b,%b,%v,%b);",
			c.Index, c.Magnitude, c.Correlation, c.Variance, c.Asymmetry,
			c.XCorr, c.Class, c.Confidence)
	}
	return out
}

// TestSequentialOracleDifferential proves the parallel multivariate
// scoring path is bit-identical to the sequential reference
// (Options.SeqOracle) at GOMAXPROCS 1, 2 and 8 — the acceptance
// criterion of the scenario subsystem.
func TestSequentialOracleDifferential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, d := range []int{1, 3} {
		s := gen(int64(10+d), 1200, d)
		want := resultFingerprint(NewDetector(core.Options{SeqOracle: true}).Detect(s))
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := resultFingerprint(NewDetector(core.Options{}).Detect(s))
			if got != want {
				t.Errorf("d=%d GOMAXPROCS=%d: parallel result diverges from sequential oracle\n got %s\nwant %s",
					d, procs, got, want)
			}
		}
	}
}

// TestFixedSeedDeterminism runs the same detection repeatedly and
// demands bit-identical output.
func TestFixedSeedDeterminism(t *testing.T) {
	s := gen(21, 1000, 2)
	want := resultFingerprint(NewDetector(core.Options{Seed: 7}).Detect(s))
	for i := 0; i < 3; i++ {
		got := resultFingerprint(NewDetector(core.Options{Seed: 7}).Detect(s))
		if got != want {
			t.Fatalf("run %d differs from run 0", i+1)
		}
	}
}

// TestDetectCtxCancellation checks cancellation at every stage
// boundary: an already-cancelled context must return ctx.Err() before
// any work, and a context cancelled mid-run must surface promptly.
func TestDetectCtxCancellation(t *testing.T) {
	s := gen(31, 1500, 3)
	det := NewDetector(core.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := det.DetectCtx(ctx, s); err != context.Canceled || res != nil {
		t.Errorf("pre-cancelled: res=%v err=%v, want nil/context.Canceled", res, err)
	}

	// A deadline in the past cancels between stages too.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := det.DetectCtx(dctx, s); err == nil {
		t.Error("expired deadline: want error, got nil")
	}

	// DetectActiveCtx: cancel from inside the labeler — the evaluation
	// loop's boundary check must stop the run.
	actx, acancel := context.WithCancel(context.Background())
	_, err := det.DetectActiveCtx(actx, s, cancelLabeler{s: s, cancel: acancel})
	if err != context.Canceled {
		t.Errorf("mid-AL cancel: err=%v, want context.Canceled", err)
	}
}

// cancelLabeler cancels the run on its first oracle query.
type cancelLabeler struct {
	s      *Series
	cancel context.CancelFunc
}

func (c cancelLabeler) Label(i int) series.Label {
	c.cancel()
	return c.s.LabelAt(i)
}

// TestDegradedPath forces the candidate-explosion fallback and checks
// it is reported and still produces bounded, usable output.
func TestDegradedPath(t *testing.T) {
	s := gen(41, 1200, 2)
	res := NewDetector(core.Options{DegradeCandidates: 2}).Detect(s)
	if !res.Degraded {
		t.Fatal("DegradeCandidates=2 did not degrade")
	}
	if res.Strategy != core.FixedKNN {
		t.Errorf("degraded strategy = %v, want FixedKNN", res.Strategy)
	}
	if res.DegradeReason == "" {
		t.Error("degraded without a reason")
	}
	// An already-FixedKNN configuration must not re-degrade.
	res2 := NewDetector(core.Options{DegradeCandidates: 2, Strategy: core.FixedKNN}).Detect(s)
	if res2.Degraded {
		t.Error("FixedKNN configuration reported degradation")
	}
}

// TestDeadlineDegrades: the scorer's deadline pilot runs for multi as it
// does for univariate series. The recorder's fake clock reads past the
// context's deadline while the real deadline is an hour away, so the
// projection always exceeds the remaining budget and ctx never fires.
func TestDeadlineDegrades(t *testing.T) {
	s := gen(42, 1200, 2)
	deadline := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	clk := obs.NewFakeClock(deadline.Add(time.Minute))
	clk.SetStep(time.Millisecond)
	res, err := NewDetector(core.Options{Obs: obs.NewWithClock(clk)}).DetectCtx(ctx, s)
	if err != nil {
		t.Fatalf("DetectCtx: %v", err)
	}
	if !res.Degraded || res.Strategy != core.FixedKNN {
		t.Fatalf("Degraded=%v Strategy=%v, want a FixedKNN degradation", res.Degraded, res.Strategy)
	}
	if res.DegradeReason != "context deadline headroom too small for INN scoring" {
		t.Errorf("DegradeReason = %q", res.DegradeReason)
	}
}

// TestCollectiveMergeAcrossChannels: a burst hitting all channels at
// the same positions must come out with the collective subtype; the
// same burst confined to one channel of a correlated pair must not be
// relabeled by the cross-channel merge.
func TestCollectiveMergeAcrossChannels(t *testing.T) {
	s := gen(51, 1000, 3)
	res := NewDetector(core.Options{}).Detect(s)
	n := 1000
	var collective, seen int
	for _, d := range res.Anomalies {
		// The fixture's spikes at n/5 and n/2 hit every channel.
		if d.Index == n/5 || d.Index == n/2 {
			seen++
			if d.Subtype == series.CollectiveAnomaly {
				collective++
			}
		}
	}
	if seen == 0 {
		t.Fatal("fixture spikes not detected; cannot test merge")
	}
	if collective != seen {
		t.Errorf("cross-channel spikes labeled collective: %d/%d", collective, seen)
	}
}

// TestXCorrOnlyMultivariate: the cross-channel feature must stay zero
// on 1-channel input (the univariate layout) and be populated for d>=2.
func TestXCorrOnlyMultivariate(t *testing.T) {
	uni := gen(61, 800, 1)
	res := NewDetector(core.Options{}).Detect(uni)
	for _, c := range res.Candidates {
		if c.XCorr != 0 {
			t.Fatalf("d=1 candidate %d has XCorr=%v, want 0", c.Index, c.XCorr)
		}
	}
	mv := gen(61, 800, 3)
	res = NewDetector(core.Options{}).Detect(mv)
	var nonzero int
	for _, c := range res.Candidates {
		if c.XCorr != 0 {
			nonzero++
		}
		if c.XCorr < 0 || c.XCorr > 1 {
			t.Fatalf("XCorr %v out of [0,1]", c.XCorr)
		}
	}
	if len(res.Candidates) > 0 && nonzero == 0 {
		t.Error("d=3 run produced no nonzero XCorr at all")
	}
}
