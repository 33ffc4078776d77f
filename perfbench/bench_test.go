package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"cabd"
)

// fakeClock advances only when told to, or when something sleeps on it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) { c.advance(d) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTailPercentileTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 19, ok: false}, // even the median has only 9 beyond
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 39, p: 50, beyond: 19, ok: true}, // p75 would leave 9
		{n: 40, p: 75, beyond: 10, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 199, p: 90, beyond: 19, ok: true},
		{n: 10000, p: 90, beyond: 1000, ok: true}, // the ladder tops out at p90
	}
	for _, c := range cases {
		p, b, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && (p != c.p || b != c.beyond)) {
			t.Errorf("tailPercentile(%d) = %v, %d, %v; want %v, %d, %v", c.n, p, b, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestSummarizeReportsLadderTail(t *testing.T) {
	samples := make([]time.Duration, 200)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond // 1..200 ms
	}
	s := summarize(samples)
	if s.N != 200 || s.P50Ms != 100 || s.TailPct != 90 || s.TailMs != 180 || s.TailBeyond != 20 {
		t.Fatalf("summary = %+v; want n=200 p50=100 tail p90=180 with 20 beyond", s)
	}
	// Exactly the reported number of samples are above the tail value.
	above := 0
	for _, d := range samples {
		if durMs(d) > s.TailMs {
			above++
		}
	}
	if above != s.TailBeyond {
		t.Fatalf("%d samples above the tail, summary says %d", above, s.TailBeyond)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.x", Start: 12 * ms, End: 18 * ms}, // grandchild: only a's
		{ID: 6, Name: "other", Start: 200 * ms, End: 210 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 14 * ms, 3: 30 * ms, 4: 30 * ms, 5: 6 * ms, 6: 10 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v; want %v", self, want)
	}
}

func TestTracerOnFakeClock(t *testing.T) {
	clk := newFakeClock()
	tr := newTracer(clk)
	clk.advance(5 * time.Millisecond)
	root := tr.start("op", 0, 7)
	clk.advance(2 * time.Millisecond)
	call := tr.start("call", root, 7)
	at := clk.Now()
	clk.advance(10 * time.Millisecond)
	tr.end(call)
	tr.addSequence(call, 7, at, []string{"s1", "s2", "s3"},
		[]time.Duration{3 * time.Millisecond, 0, 4 * time.Millisecond})
	clk.advance(1 * time.Millisecond)
	tr.end(root)

	if len(tr.spans) != 4 {
		t.Fatalf("got %d spans, want 4 (zero-length stage skipped)", len(tr.spans))
	}
	self := selfTimes(tr.spans)
	if got := self[root]; got != 3*time.Millisecond {
		t.Errorf("root self = %v, want 3ms", got)
	}
	if got := self[call]; got != 3*time.Millisecond {
		t.Errorf("call self = %v, want 3ms (10ms minus 7ms of stages)", got)
	}
	if s := tr.spans[3]; s.Name != "s3" || s.Start != 10*time.Millisecond || s.End != 14*time.Millisecond {
		t.Errorf("s3 = %+v, want [10ms,14ms) laid after s1", s)
	}
	var off *tracer
	if id := off.start("x", 0, 0); id != 0 {
		t.Errorf("nil tracer start = %d, want 0", id)
	}
	off.end(0)
}

func TestOpenLoopLagOnFakeClock(t *testing.T) {
	clk := newFakeClock()
	ms := time.Millisecond
	service := []time.Duration{5 * ms, 25 * ms, 5 * ms, 5 * ms, 2 * ms}
	t0 := clk.Now()
	got := openLoop(clk, t0, 10*ms, len(service), 1, func(k int) time.Time {
		clk.advance(service[k])
		return clk.Now()
	})
	// Request 1 overruns its slot by 15ms; 2 and 3 are sent late and
	// their latency counts the wait; 4 is back on schedule.
	wantLag := []time.Duration{0, 0, 15 * ms, 10 * ms, 5 * ms}
	wantLat := []time.Duration{5 * ms, 25 * ms, 20 * ms, 15 * ms, 7 * ms}
	for k, s := range got {
		if s.Due != t0.Add(time.Duration(k)*10*ms) {
			t.Errorf("request %d due %v after start, want %v", k, s.Due.Sub(t0), time.Duration(k)*10*ms)
		}
		if s.Lag() != wantLag[k] || s.Latency() != wantLat[k] {
			t.Errorf("request %d: lag %v latency %v; want %v %v", k, s.Lag(), s.Latency(), wantLag[k], wantLat[k])
		}
	}
}

func TestClosedLoopLagIsGeneratorTime(t *testing.T) {
	clk := newFakeClock()
	ms := time.Millisecond
	ops, lags, wall := closedLoop(clk, 100*ms, func(k int64) time.Time {
		clk.advance(8 * ms) // the system works
		done := clk.Now()
		clk.advance(2 * ms) // the generator checks the answer
		return done
	})
	if ops != 10 || wall != 100*ms {
		t.Fatalf("ops %d wall %v; want 10 ops in 100ms", ops, wall)
	}
	if len(lags) != 9 {
		t.Fatalf("got %d lags, want one before each op after the first", len(lags))
	}
	for _, l := range lags {
		if l != 2*ms {
			t.Fatalf("lag %v, want the 2ms the generator spent", l)
		}
	}
	// A unit that runs out of inputs ends the loop early.
	ops, _, _ = closedLoop(clk, time.Hour, func(k int64) time.Time {
		if k == 3 {
			return time.Time{}
		}
		clk.advance(ms)
		return clk.Now()
	})
	if ops != 3 {
		t.Fatalf("exhausted loop ran %d ops, want 3", ops)
	}
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := genUniPool(5, 4, 700), genUniPool(5, 4, 700)
	for i := range a {
		if !reflect.DeepEqual(floatBits(a[i].Values), floatBits(b[i].Values)) ||
			!reflect.DeepEqual(a[i].Truth, b[i].Truth) || !reflect.DeepEqual(a[i].Labels, b[i].Labels) {
			t.Fatalf("series %d differs between two generations from one seed", i)
		}
	}
	ma, mb := genMultiPool(5, 3), genMultiPool(5, 3)
	for i := range ma {
		for d := range ma[i].Dims {
			if !reflect.DeepEqual(floatBits(ma[i].Dims[d]), floatBits(mb[i].Dims[d])) {
				t.Fatalf("payload %d channel %d differs between two generations", i, d)
			}
		}
		if !reflect.DeepEqual(ma[i].Truth, mb[i].Truth) {
			t.Fatalf("payload %d truth differs", i)
		}
	}
	if !reflect.DeepEqual(floatBits(genStreamProbe(5)), floatBits(genStreamProbe(5))) {
		t.Fatal("stream probe differs between two generations")
	}

	fp := func(seed int64) string {
		f := newFingerprinter("w")
		f.uni(genUniPool(seed, 4, 700))
		f.multi(genMultiPool(seed, 3))
		return f.sum()
	}
	if fp(5) != fp(5) {
		t.Fatal("fingerprint differs for one seed")
	}
	if fp(5) == fp(6) {
		t.Fatal("fingerprint equal for two seeds")
	}
}

func TestWorkloadSetupFingerprintRepeats(t *testing.T) {
	var fps []string
	for r := 0; r < 2; r++ {
		w := &batchWorkload{}
		if err := w.setup(3, false); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, w.fingerprint())
		w.close()
	}
	if fps[0] != fps[1] {
		t.Fatalf("batch set-up fingerprints differ: %s vs %s", fps[0], fps[1])
	}
}

func TestVerdictChecks(t *testing.T) {
	ok := verdict{
		Anomalies:    []detection{{1, "single-anomaly", 0.9}, {4, "collective-anomaly", 1}},
		ChangePoints: []detection{{2, "change-point", 0}},
	}
	if err := ok.check(5); err != nil {
		t.Fatalf("valid verdict rejected: %v", err)
	}
	bad := []verdict{
		{Anomalies: []detection{{5, "single-anomaly", 0.5}}},                             // out of range
		{Anomalies: []detection{{3, "single-anomaly", 0.5}, {3, "single-anomaly", 0.5}}}, // not increasing
		{Anomalies: []detection{{1, "single-anomaly", 1.5}}},                             // confidence
		{Anomalies: []detection{{1, "single-anomaly", math.NaN()}}},                      // confidence
		{ChangePoints: []detection{{1, "single-anomaly", 0.5}}},                          // subtype
	}
	for i, v := range bad {
		if v.check(5) == nil {
			t.Errorf("bad verdict %d accepted", i)
		}
	}
	if ok.equal(verdict{Anomalies: ok.Anomalies}) {
		t.Error("verdicts with different change points compare equal")
	}
}

func TestStreamCheckerRejectsRepeatsAndUnconfirmed(t *testing.T) {
	c := newStreamChecker(100, 10)
	if err := c.observe(200, []cabd.StreamDetection{{Index: 120, Subtype: cabd.SingleAnomaly, Confidence: 1},
		{Index: 110, Subtype: cabd.ChangePoint, Confidence: 0.5}}); err != nil {
		t.Fatalf("valid emissions rejected: %v", err)
	}
	cases := [][]cabd.StreamDetection{
		{{Index: 120, Subtype: cabd.SingleAnomaly, Confidence: 1}},                                                           // repeat
		{{Index: 195, Subtype: cabd.SingleAnomaly, Confidence: 1}},                                                           // in the margin
		{{Index: 50, Subtype: cabd.SingleAnomaly, Confidence: 1}},                                                            // slid out
		{{Index: 150, Subtype: cabd.SingleAnomaly, Confidence: 1}, {Index: 140, Subtype: cabd.SingleAnomaly, Confidence: 1}}, // order
	}
	for i, ds := range cases {
		if c.observe(200, ds) == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
