package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cabd/internal/core"
	"cabd/internal/experiments"
	"cabd/internal/multi"
	"cabd/internal/sanitize"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// The differentials below are the optimized pipeline's central
// contract: the SoA feature matrix, per-tree parallel forest training
// and tree-major batch inference must emit bit-identical results to the
// sequential row-major reference (core.WithSeqOracle run at
// GOMAXPROCS 1), at every GOMAXPROCS. One bit of drift means a
// scheduling or accumulation-order leak.

// fingerprint flattens everything detection-relevant about a result at
// bit level: strategy, degradation and query count, every detection
// with its confidence, and every candidate's scores, neighborhood size,
// extents, class and confidence.
func fingerprint(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%v degraded=%v reason=%q queries=%d\n", r.Strategy, r.Degraded, r.DegradeReason, r.Queries)
	for _, d := range r.Anomalies {
		fmt.Fprintf(&b, "a %d %v %b\n", d.Index, d.Subtype, d.Confidence)
	}
	for _, d := range r.ChangePoints {
		fmt.Fprintf(&b, "c %d %v %b\n", d.Index, d.Subtype, d.Confidence)
	}
	for _, c := range r.Candidates {
		fmt.Fprintf(&b, "k %d %b %b %b %b %b %d %d %d %b %v %b\n",
			c.Index, c.Magnitude, c.Correlation, c.Variance, c.Asymmetry, c.XCorr,
			len(c.INN), c.LeftExtent, c.RightExtent, c.SecondDiffZ, c.Class, c.Confidence)
	}
	return b.String()
}

// atProcs runs f at GOMAXPROCS procs and restores the previous setting.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// checkOracle runs detect once through the sequential oracle at
// GOMAXPROCS 1 and through the default path at GOMAXPROCS 1, 2 and 8,
// failing on the first line where a default run differs. It returns the
// oracle's fingerprint.
func checkOracle(t *testing.T, opts core.Options, detect func(core.Options) *core.Result) string {
	t.Helper()
	var want string
	atProcs(1, func() { want = fingerprint(detect(core.WithSeqOracle(opts))) })
	for _, procs := range []int{1, 2, 8} {
		var got string
		atProcs(procs, func() { got = fingerprint(detect(opts)) })
		if got != want {
			t.Errorf("GOMAXPROCS=%d diverged from the sequential oracle: %s", procs, firstDiff(want, got))
		}
	}
	return want
}

// firstDiff describes the first line where got differs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n oracle %q\n   fast %q", i+1, wl, gl)
		}
	}
	return "no differing line"
}

// detectValues runs the univariate path as the cabd facade does:
// sanitize under opts.Sanitize, then detect, actively when l is set.
func detectValues(t *testing.T, vals []float64, l core.Labeler) func(core.Options) *core.Result {
	return func(opts core.Options) *core.Result {
		clean, _, _, err := sanitize.Series(vals, sanitize.Config{Policy: opts.Sanitize})
		if err != nil {
			t.Fatalf("sanitize: %v", err)
		}
		s := series.New("series", clean)
		if l != nil {
			return core.NewDetector(opts).DetectActive(s, l)
		}
		return core.NewDetector(opts).Detect(s)
	}
}

// TestDetectSeqOracleDifferential covers both sanitize policies, the
// FixedKNN ablation, a forced degradation and a second seed on the
// 2,000-point Yahoo-like fixture, poisoned so that Interpolate and Drop
// produce different candidate sets.
func TestDetectSeqOracleDifferential(t *testing.T) {
	vals := append([]float64(nil), synth.YahooLike(100, 2000).Values...)
	vals[137] = math.NaN()
	vals[901] = math.Inf(1)
	cases := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{Seed: 1}},
		{"interpolate", core.Options{Seed: 1, Sanitize: sanitize.Interpolate}},
		{"drop", core.Options{Seed: 1, Sanitize: sanitize.Drop}},
		{"fixed-knn", core.Options{Seed: 1, Strategy: core.FixedKNN}},
		{"degraded", core.Options{Seed: 1, DegradeCandidates: 4}},
		{"seed-42", core.Options{Seed: 42}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := checkOracle(t, tc.opts, detectValues(t, vals, nil))
			if tc.name == "degraded" && !strings.Contains(want, "degraded=true") {
				t.Fatalf("degraded case did not degrade:\n%s", want)
			}
		})
	}
}

// TestScaleFixtureSeqOracleDifferential runs the differential on the
// fixture the runtime experiments time, YahooLike(42, 2000), at the
// default candidate threshold and at a lower one that scores more
// candidates.
func TestScaleFixtureSeqOracleDifferential(t *testing.T) {
	vals := synth.YahooLike(42, 2000).Values
	for _, z := range []float64{3, 2} {
		t.Run(fmt.Sprintf("z%v", z), func(t *testing.T) {
			checkOracle(t, core.Options{CandidateZ: z}, detectValues(t, vals, nil))
		})
	}
}

// labelFunc adapts a function to core.Labeler.
type labelFunc func(i int) series.Label

func (f labelFunc) Label(i int) series.Label { return f(i) }

// TestDetectInteractiveSeqOracleDifferential extends the differential
// through the active-learning loop: the retraining rounds reuse the
// classification scratch buffers round over round, so stale state there
// would first surface here.
func TestDetectInteractiveSeqOracleDifferential(t *testing.T) {
	oracle := labelFunc(func(i int) series.Label {
		if i%3 == 0 {
			return series.SingleAnomaly
		}
		return series.Normal
	})
	want := checkOracle(t, core.Options{Seed: 1}, detectValues(t, synth.YahooLike(100, 2000).Values, oracle))
	if header, _, _ := strings.Cut(want, "\n"); strings.HasSuffix(header, " queries=0") {
		t.Fatal("the interactive run asked no queries")
	}
}

// multiFixture is d correlated channels around a shared seasonal AR
// carrier, with spikes at n/5 and n/2 in every channel and a collective
// anomaly in channel 0 only.
func multiFixture(seed int64, n, d int) *multi.Series {
	rng := rand.New(rand.NewSource(seed))
	base := make([]float64, n)
	ar := 0.0
	for i := range base {
		ar = 0.7*ar + rng.NormFloat64()*0.1
		base[i] = 2*math.Sin(2*math.Pi*float64(i)/150) + ar
	}
	dims := make([][]float64, d)
	for k := range dims {
		dims[k] = make([]float64, n)
		for i := range dims[k] {
			dims[k][i] = base[i]*float64(k+1)*0.5 + rng.NormFloat64()*0.1
		}
	}
	for _, p := range []int{n / 5, n / 2} {
		for k := range dims {
			dims[k][p] += 15
		}
	}
	for i := 3 * n / 4; i < 3*n/4+6; i++ {
		dims[0][i] += 12
	}
	return multi.NewSeries("multi", dims)
}

// detectMulti runs the joint multivariate detector over s.
func detectMulti(s *multi.Series) func(core.Options) *core.Result {
	return func(opts core.Options) *core.Result {
		return multi.NewDetector(opts).Detect(s)
	}
}

// TestMultiSeqOracleDifferential: multivariate detection scores through
// core's scorer and classifier, so the oracle reaches it through
// multi.NewDetector. d = 3 exercises the cross-channel feature column.
func TestMultiSeqOracleDifferential(t *testing.T) {
	for _, d := range []int{1, 3} {
		t.Run(fmt.Sprintf("d%d", d), func(t *testing.T) {
			checkOracle(t, core.Options{}, detectMulti(multiFixture(int64(10+d), 1200, d)))
		})
	}
}

// TestScenarioSmokeSeqOracleDifferential replays every cell of the
// scenarios experiment's smoke grid, sanitized as the experiment
// sanitizes it, against the oracle.
func TestScenarioSmokeSeqOracleDifferential(t *testing.T) {
	cells := experiments.ScenarioSmokeConfig().Grid.Generate()
	if len(cells) == 0 {
		t.Fatal("the smoke grid is empty")
	}
	for _, sc := range cells {
		t.Run(sc.Name, func(t *testing.T) {
			dims, _, _, err := sanitize.Multi(sc.Dims, sanitize.Config{})
			if err != nil {
				dims = sc.Dims
			}
			checkOracle(t, core.Options{}, detectMulti(multi.NewSeries(sc.Name, dims)))
		})
	}
}
