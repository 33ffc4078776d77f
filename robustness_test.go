// Robustness contract of the public facade: hostile input never panics,
// errors carry enough context to act on, cancellation is prompt, a batch
// survives its worst member, and degradation is visible on the Result.
package cabd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// noisy builds a jittery sine with a handful of strong spikes — enough
// structure for the detector to find candidates on every run.
func noisy(seed int64, n int, spikes ...int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(float64(i)/7) + 0.1*rng.NormFloat64()
	}
	for _, i := range spikes {
		out[i] += 40
	}
	return out
}

func TestDetectEdgeCases(t *testing.T) {
	det := New(Options{})
	cases := []struct {
		name   string
		values []float64
		err    error
	}{
		{"nil", nil, ErrEmpty},
		{"empty", []float64{}, ErrEmpty},
		{"single point", []float64{3.14}, ErrTooShort},
		{"too short", []float64{1, 2, 3}, ErrTooShort},
		{"all NaN", []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}, ErrAllBad},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := det.DetectCtx(context.Background(), tc.values)
			if !errors.Is(err, tc.err) {
				t.Fatalf("DetectCtx error = %v, want %v", err, tc.err)
			}
			if res == nil || res.Sanitize == nil {
				t.Fatal("error result must still carry a sanitize report")
			}
			// The legacy entry point swallows the error but must not crash
			// or return nil.
			if legacy := det.Detect(tc.values); legacy == nil || len(legacy.Anomalies) != 0 {
				t.Fatal("legacy Detect must return an empty non-nil result")
			}
		})
	}

	t.Run("all identical", func(t *testing.T) {
		flat := make([]float64, 100)
		for i := range flat {
			flat[i] = 42
		}
		res, err := det.DetectCtx(context.Background(), flat)
		if err != nil {
			t.Fatalf("constant series must not error: %v", err)
		}
		if !res.Sanitize.Constant {
			t.Error("sanitize report should flag the constant series")
		}
		if len(res.Anomalies)+len(res.ChangePoints) != 0 {
			t.Errorf("constant series produced %d detections", len(res.Anomalies)+len(res.ChangePoints))
		}
	})
}

func TestDetectBatchEdgeCases(t *testing.T) {
	det := New(Options{})
	good := noisy(1, 400, 200)
	batch := [][]float64{nil, {}, {1.5}, good}
	res, errs := det.DetectBatchCtx(context.Background(), batch)
	if len(res) != len(batch) || len(errs) != len(batch) {
		t.Fatalf("misaligned output: %d results, %d errors for %d series", len(res), len(errs), len(batch))
	}
	for i, want := range []error{ErrEmpty, ErrEmpty, ErrTooShort, nil} {
		if !errors.Is(errs[i], want) {
			t.Errorf("series %d: error = %v, want %v", i, errs[i], want)
		}
		if res[i] == nil {
			t.Errorf("series %d: nil result", i)
		}
	}
	if len(res[3].Anomalies) == 0 {
		t.Error("good series in a hostile batch found nothing")
	}

	// Zero-length batch is a no-op, not a deadlock.
	if r, e := det.DetectBatchCtx(context.Background(), nil); len(r) != 0 || len(e) != 0 {
		t.Error("nil batch must return empty slices")
	}
}

func TestDetectMultiEdgeCases(t *testing.T) {
	det := NewMulti(Options{})
	ctx := context.Background()

	if _, err := det.DetectCtx(ctx, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("nil dims: %v, want ErrEmpty", err)
	}
	if _, err := det.DetectCtx(ctx, [][]float64{{}}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty dim: %v, want ErrEmpty", err)
	}
	if _, err := det.DetectCtx(ctx, [][]float64{{1, 2, 3}, {1, 2}}); !errors.Is(err, ErrRagged) {
		t.Errorf("ragged dims: %v, want ErrRagged", err)
	}
	if _, err := det.DetectCtx(ctx, [][]float64{{7}}); !errors.Is(err, ErrTooShort) {
		t.Errorf("single point: %v, want ErrTooShort", err)
	}

	flat := [][]float64{make([]float64, 50), make([]float64, 50)}
	res, err := det.DetectCtx(ctx, flat)
	if err != nil {
		t.Fatalf("constant multivariate series must not error: %v", err)
	}
	if !res.Sanitize.Constant {
		t.Error("sanitize report should flag constant dims")
	}
}

func TestCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	det := New(Options{})
	values := noisy(2, 5000, 1000, 2500, 4000)

	start := time.Now()
	_, err := det.DetectCtx(ctx, values)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DetectCtx on cancelled context = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt return", el)
	}

	mdet := NewMulti(Options{})
	if _, err := mdet.DetectCtx(ctx, [][]float64{values, values}); !errors.Is(err, context.Canceled) {
		t.Fatalf("multi DetectCtx on cancelled context = %v, want context.Canceled", err)
	}

	_, errs := det.DetectBatchCtx(ctx, [][]float64{values, values})
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Errorf("batch series %d on cancelled context: %v, want context.Canceled", i, e)
		}
	}
}

func TestCandidateBoundDegradation(t *testing.T) {
	det := New(Options{DegradeCandidates: 1})
	res, err := det.DetectCtx(context.Background(), noisy(3, 800, 100, 400, 700))
	if err != nil {
		t.Fatalf("DetectCtx: %v", err)
	}
	if !res.Degraded {
		t.Fatal("expected candidate-bound degradation with DegradeCandidates=1")
	}
	if res.Strategy != FixedKNN {
		t.Errorf("degraded strategy = %v, want FixedKNN", res.Strategy)
	}
	if res.DegradeReason == "" {
		t.Error("degraded result must carry a reason")
	}
}

func TestPanicIsolationInteractive(t *testing.T) {
	det := New(Options{Confidence: 0.99, MaxQueries: 20})
	values := noisy(4, 600, 150, 300, 450)
	res, err := det.DetectInteractiveCtx(context.Background(), values, func(i int) Label {
		panic("labeler exploded")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v (%T), want *PanicError", err, err)
	}
	if pe.Series != -1 {
		t.Errorf("non-batch panic Series = %d, want -1", pe.Series)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError must capture the stack")
	}
	if res == nil {
		t.Error("error result must be non-nil")
	}
}

func TestBatchIsolatesFailingSeries(t *testing.T) {
	det := New(Options{Sanitize: SanitizeReject})
	good1 := noisy(5, 400, 200)
	poisoned := noisy(6, 400, 200)
	poisoned[42] = math.NaN()
	good2 := noisy(7, 400, 200)

	res, errs := det.DetectBatchCtx(context.Background(), [][]float64{good1, poisoned, good2})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("clean series failed: %v / %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], ErrBadValues) {
		t.Fatalf("poisoned series error = %v, want ErrBadValues", errs[1])
	}
	if res[1] == nil || res[1].Sanitize == nil || res[1].Sanitize.NaNs != 1 {
		t.Error("poisoned result must report the single NaN")
	}
	if len(res[0].Anomalies) == 0 || len(res[2].Anomalies) == 0 {
		t.Error("clean series in the batch must still detect")
	}
}

func TestSanitizeReportOnDetect(t *testing.T) {
	values := noisy(8, 500, 250)
	values[10], values[11] = math.NaN(), math.Inf(1)
	values[490] = 1e300

	res := New(Options{}).Detect(values)
	rep := res.Sanitize
	if rep == nil {
		t.Fatal("Detect result missing sanitize report")
	}
	if rep.NaNs != 1 || rep.Infs != 1 || rep.Extremes != 1 {
		t.Errorf("report counts nan=%d inf=%d extreme=%d, want 1/1/1", rep.NaNs, rep.Infs, rep.Extremes)
	}
	if len(rep.Repaired) != 3 || rep.Clean() {
		t.Errorf("report should list 3 repaired points: %s", rep)
	}
}

func TestDropPolicyRemapsIndices(t *testing.T) {
	const n, spike = 300, 150
	values := noisy(9, n, spike)
	dropped := map[int]bool{20: true, 21: true, 22: true, 80: true}
	for i := range dropped {
		values[i] = math.NaN()
	}

	res, err := New(Options{Sanitize: SanitizeDrop}).DetectCtx(context.Background(), values)
	if err != nil {
		t.Fatalf("DetectCtx: %v", err)
	}
	if len(res.Sanitize.Dropped) != len(dropped) {
		t.Fatalf("dropped %d points, want %d", len(res.Sanitize.Dropped), len(dropped))
	}
	all := append(res.AnomalyIndices(), res.ChangePointIndices()...)
	if len(all) == 0 {
		t.Fatal("spiked series produced no detections")
	}
	found := false
	for _, i := range all {
		if i < 0 || i >= n {
			t.Errorf("index %d outside the original layout [0, %d)", i, n)
		}
		if dropped[i] {
			t.Errorf("index %d points at a dropped position", i)
		}
		if i == spike {
			found = true
		}
	}
	if !found {
		t.Errorf("spike at original index %d not among detections %v", spike, all)
	}
}

// TestResumeStreamRepairsBadWindow: a restored window is hostile input
// too. A 301-value window whose last value is NaN, +Inf or 1e300 (finite,
// and it survives JSON, but beyond what Push accepts) used to panic the
// next analyzing Push inside the KD-tree build. Resume replaces the value
// with its nearest good neighbor and counts it as bad; the stream position
// is unchanged.
func TestResumeStreamRepairsBadWindow(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), 1e300} {
		win := noisy(3, 301, 150)
		win[300] = bad
		d := ResumeStream(StreamConfig{Window: 256}, StreamState{Window: win, Start: 1000, Total: 1301, Bad: 2})
		if d.Bad() != 3 {
			t.Errorf("bad=%v: Bad() = %d, want 3", bad, d.Bad())
		}
		st := d.State()
		if len(st.Window) != 301 || st.Start != 1000 || st.Total != 1301 {
			t.Fatalf("bad=%v: restored %d values, start %d, total %d; want 301, 1000, 1301",
				bad, len(st.Window), st.Start, st.Total)
		}
		if st.Window[300] != win[299] {
			t.Errorf("bad=%v: restored window[300] = %v, want its neighbor %v", bad, st.Window[300], win[299])
		}
		analyzed := false
		for i := 0; i < 64; i++ {
			for _, det := range d.Push(math.Sin(float64(i) / 7)) {
				analyzed = true
				if det.Index < 1000 || det.Index >= 1301+64 {
					t.Errorf("bad=%v: detection index %d outside the stream", bad, det.Index)
				}
			}
		}
		if !analyzed {
			t.Errorf("bad=%v: no detection after 64 pushes past the restored window", bad)
		}
	}
}
