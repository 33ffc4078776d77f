package stream

import (
	"math/rand"
	"testing"
	"time"

	"cabd/internal/core"
	"cabd/internal/faultgen"
	"cabd/internal/obs"
	"cabd/internal/sanitize"
	"cabd/internal/synth"
)

// TestTinyWindowDefaults pins the defaults() fixes: Hop used to resolve
// to Window/8 = 0 for Window < 8 (analysis every push, and a divide-free
// stall risk downstream), and the Margin clamp used to assign the exact
// value its own guard rejects (Window/2), leaving every detection inside
// the unstable zone on tiny windows.
func TestTinyWindowDefaults(t *testing.T) {
	cases := []struct {
		name        string
		in          Config
		hop, margin int
	}{
		{"window 1", Config{Window: 1}, 1, 0},
		{"window 2", Config{Window: 2}, 1, 0},
		{"window 4", Config{Window: 4}, 1, 1},
		{"window 7", Config{Window: 7}, 1, 2},
		{"window 8", Config{Window: 8}, 1, 3},
		{"window 16", Config{Window: 16}, 2, 7},
		{"window 100 margin huge", Config{Window: 100, Margin: 500}, 12, 49},
		{"explicit hop kept", Config{Window: 4, Hop: 3}, 3, 1},
		{"margin below clamp kept", Config{Window: 100, Margin: 10}, 12, 10},
		{"default window", Config{}, 128, 16},
	}
	for _, tc := range cases {
		cfg := tc.in
		cfg.defaults()
		if cfg.Hop != tc.hop || cfg.Margin != tc.margin {
			t.Errorf("%s: hop=%d margin=%d, want hop=%d margin=%d",
				tc.name, cfg.Hop, cfg.Margin, tc.hop, tc.margin)
		}
		if cfg.Hop < 1 {
			t.Errorf("%s: hop %d can never trigger an analysis", tc.name, cfg.Hop)
		}
		if cfg.Window >= 2 && cfg.Margin >= cfg.Window/2 && cfg.Margin > 0 {
			t.Errorf("%s: margin %d not strictly below window/2", tc.name, cfg.Margin)
		}
	}
}

// TestTinyWindowStreamProgresses is the end-to-end regression: a tiny
// window must still produce analyses and let detections leave the
// margin, instead of dividing into a Hop=0 / Margin=Window/2 stall.
func TestTinyWindowStreamProgresses(t *testing.T) {
	for _, w := range []int{2, 4, 7} {
		d := New(Config{Window: w})
		for i := 0; i < 200; i++ {
			d.Push(float64(i % 3))
		}
		if d.Total() != 200 {
			t.Errorf("window %d: Total=%d", w, d.Total())
		}
	}
}

// TestStaleEmittedEvictedAtHop pins the deferred-eviction contract:
// stale emitted indices survive between analyses (Push no longer scans
// the map per observation), never appear in State(), and are purged by
// the next analysis.
func TestStaleEmittedEvictedAtHop(t *testing.T) {
	d := New(Config{Window: 64, Hop: 16, Options: core.Options{Seed: 3}})
	d.emitted[1] = true // will go stale once the window slides past it
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 70; i++ { // fill past the window so start > 1, but stop before a hop lands
		d.Push(rng.NormFloat64())
		if i == 68 && !d.emitted[1] {
			t.Fatal("stale emitted index evicted outside an analysis boundary")
		}
	}
	if d.start <= 1 {
		t.Fatalf("window never slid (start=%d); test setup wrong", d.start)
	}
	for _, idx := range d.State().Emitted {
		if idx < d.start {
			t.Fatalf("State leaked stale emitted index %d (start %d)", idx, d.start)
		}
	}
	for i := 0; i < 16; i++ { // land an analysis: the hop boundary purges
		d.Push(rng.NormFloat64())
	}
	if d.emitted[1] {
		t.Fatal("analysis boundary did not evict the stale emitted index")
	}
}

// BenchmarkPushSteadyState guards the Push hot path: a full window with
// a populated emitted set must not pay a per-observation map scan.
func BenchmarkPushSteadyState(b *testing.B) {
	d := New(Config{Window: 4096, Hop: 1 << 30}) // hop never fires: isolate Push itself
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		d.Push(rng.NormFloat64())
	}
	for i := 0; i < 512; i++ {
		d.emitted[i] = true // mostly-stale dedup set of a long-running stream
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(float64(i&127) * 0.01)
	}
}

// TestHopTimeoutAbandonsAnalysis: with an already-expired deadline the
// analysis is abandoned — counted, no detections, and Push keeps
// accepting observations instead of stalling.
func TestHopTimeoutAbandonsAnalysis(t *testing.T) {
	rec := obs.NewWithClock(obs.NewFakeClock(time.Time{})) // epoch clock: every deadline is long past
	d := New(Config{
		Window: 64, Hop: 16, HopTimeout: time.Nanosecond,
		Options: core.Options{Seed: 3, Obs: rec},
	})
	vals := signal(12, 400, []int{200})
	var got []Detection
	for _, v := range vals {
		got = append(got, d.Push(v)...)
	}
	if len(got) != 0 {
		t.Fatalf("abandoned analyses still emitted %d detections", len(got))
	}
	if n := rec.Count(obs.CounterStreamHopTimeouts); n == 0 {
		t.Fatal("hop timeouts not counted")
	}
	if d.Total() != 400 {
		t.Fatalf("Total=%d: Push stalled", d.Total())
	}
}

// TestDegradedSurfacesOnDetections: an analysis that degrades (candidate
// flood over a tiny DegradeCandidates bound) still emits its detections,
// and they carry the Degraded flag.
func TestDegradedSurfacesOnDetections(t *testing.T) {
	vals := signal(13, 1200, []int{300, 600, 900})
	d := New(Config{
		Window: 400, Hop: 60,
		Options: core.Options{Seed: 3, DegradeCandidates: 1},
	})
	got := runStream(d, vals)
	if len(got) == 0 {
		t.Fatal("degraded stream emitted nothing")
	}
	for _, det := range got {
		if !det.Degraded {
			t.Fatalf("detection %+v not flagged Degraded under forced degradation", det)
		}
	}
}

// TestStateResumeDropPolicy is the checkpoint round trip while the Drop
// policy is discarding faultgen-injected bad values: the resumed stream
// must match the uninterrupted run detection for detection.
func TestStateResumeDropPolicy(t *testing.T) {
	s := synth.Generate(synth.Config{N: 900, Seed: 17, SingleFrac: 0.02, ChangeFrac: 0.01})
	vals, _ := faultgen.Chaos(rand.New(rand.NewSource(23)), s.Values) // NaN runs + extremes land mid-stream
	checkResume(t, Config{Window: 128, Hop: 16, Margin: 8, BadValue: sanitize.Drop,
		Options: core.Options{Seed: 5}}, vals)
}
