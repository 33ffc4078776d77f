package experiments

import (
	"testing"
	"time"

	"cabd/internal/obs"
)

// withFakeClock swaps the package time source for a stepping FakeClock
// and restores it when the test ends. Tests using it must not run in
// parallel with each other.
func withFakeClock(t *testing.T, step time.Duration) *obs.FakeClock {
	t.Helper()
	fc := obs.NewFakeClock(time.Time{})
	fc.SetStep(step)
	old := clk
	clk = fc
	t.Cleanup(func() { clk = old })
	return fc
}

// TestFig11FakeClockExact: every Fig. 11 measurement brackets its
// algorithm with exactly two Now calls, so under a stepping clock every
// reported runtime is exactly one step — proof the sweep has no hidden
// wall-clock reads.
func TestFig11FakeClockExact(t *testing.T) {
	step := 250 * time.Millisecond
	withFakeClock(t, step)
	pts := Fig11([]int{64})
	if len(pts) < 4 {
		t.Fatalf("Fig11 returned %d points, want the full algorithm roster", len(pts))
	}
	for _, p := range pts {
		if p.Seconds != step.Seconds() {
			t.Errorf("%s at n=%d: %v s, want exactly %v", p.Algorithm, p.N, p.Seconds, step.Seconds())
		}
	}
}

// TestChaosFakeClockExact: each chaos cell times the guarded detection
// with one Now pair, so Elapsed is exactly one step for every row that
// reached detection.
func TestChaosFakeClockExact(t *testing.T) {
	step := 30 * time.Millisecond
	withFakeClock(t, step)
	rows := Chaos(tiny)
	if len(rows) == 0 {
		t.Fatal("Chaos returned no rows")
	}
	timed := 0
	for _, r := range rows {
		switch r.Elapsed {
		case step:
			timed++
		case 0: // sanitize rejected the faulted series before detection
		default:
			t.Errorf("%s/%s: elapsed %v, want exactly %v", r.Fault, r.Family, r.Elapsed, step)
		}
	}
	if timed == 0 {
		t.Fatal("no chaos row reached the timed detection path")
	}
}
