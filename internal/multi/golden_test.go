package multi_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"cabd/internal/core"
	"cabd/internal/multi"
	"cabd/internal/sanitize"
	"cabd/internal/scenario"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// multiGoldenPath holds what the multivariate detector returned on the
// cases below before its scoring moved onto core's scorer. It is a
// fixture, not a snapshot: never regenerate it to make a change pass,
// because a change that alters it changes what the detector finds.
// Its 60 d = 1 entries were re-recorded once, from the univariate
// detector on each case's one channel, when the two detectors became
// one: a one-channel series is now read raw, like a univariate one,
// where the multivariate path had scored a standardized copy. Right
// after, flood/d2 and flood/d3 were re-recorded when the d >= 2 flood
// guard began keeping the largest steps instead of the earliest ones.
const multiGoldenPath = "testdata/multi_golden.json"

// multiGolden is one recorded case: the detections in plain text, and a
// SHA-256 over the bit-level fingerprint of the whole result.
type multiGolden struct {
	Name         string   `json:"name"`
	Strategy     string   `json:"strategy"`
	Anomalies    []string `json:"anomalies"`
	ChangePoints []string `json:"change_points"`
	SHA256       string   `json:"sha256"`
}

// multiCase is one pinned detection: a series and how to run it.
type multiCase struct {
	name   string
	s      *multi.Series
	opts   core.Options
	active bool
}

// labeler answers active-learning queries from the series' own labels.
type labeler struct{ s *multi.Series }

func (l labeler) Label(i int) series.Label { return l.s.LabelAt(i) }

// multiGoldenCases are the pinned runs: the full and smoke scenario
// grids as the scenarios experiment feeds them (after the default
// sanitize pass), the gen fixtures at d = 1, 2, 3 and 5 under every
// strategy but MutualSet plus a forced degradation and an active run,
// and a MAD-collapse flood at d = 1, 2 and 3.
func multiGoldenCases() []multiCase {
	var out []multiCase
	grids := []struct {
		prefix string
		grid   scenario.Grid
	}{
		{"full", scenario.Grid{Families: synth.Families(), N: 1200}},
		{"smoke", scenario.Grid{Families: []synth.Family{synth.FamilyFlat},
			Severities: []scenario.Severity{scenario.Mild}, N: 500}},
	}
	for _, g := range grids {
		for _, sc := range g.grid.Generate() {
			dims, _, _, err := sanitize.Multi(sc.Dims, sanitize.Config{})
			if err != nil {
				dims = sc.Dims
			}
			out = append(out, multiCase{name: g.prefix + "/" + sc.Name, s: multi.NewSeries(sc.Name, dims)})
		}
	}
	for _, d := range []int{1, 2, 3, 5} {
		s := multi.Gen(int64(70+d), 1000, d)
		for _, v := range []struct {
			name   string
			opts   core.Options
			active bool
		}{
			{"binary", core.Options{}, false},
			{"linear", core.Options{Strategy: core.LinearINN}, false},
			{"fixedknn", core.Options{Strategy: core.FixedKNN}, false},
			{"degrade2", core.Options{DegradeCandidates: 2}, false},
			{"active", core.Options{}, true},
		} {
			out = append(out, multiCase{name: fmt.Sprintf("gen/d%d/%s", d, v.name), s: s, opts: v.opts, active: v.active})
		}
	}
	for _, d := range []int{1, 2, 3} {
		out = append(out, multiCase{name: fmt.Sprintf("flood/d%d", d), s: floodSeries(int64(90+d), 600, d)})
	}
	return out
}

// floodSeries is a zero carrier with sparse integer level steps in every
// channel: most second differences are exactly zero, so the MAD
// collapses, every step scores +Inf, and more than n/4 points flag.
func floodSeries(seed int64, n, d int) *multi.Series {
	rng := rand.New(rand.NewSource(seed))
	dims := make([][]float64, d)
	for k := range dims {
		dims[k] = make([]float64, n)
		v := 0.0
		for i := range dims[k] {
			if rng.Intn(4) == 0 {
				v += float64(rng.Intn(7) - 3)
			}
			dims[k][i] = v
		}
	}
	return multi.NewSeries("flood", dims)
}

// run executes one case on a fresh detector.
func (c multiCase) run() *core.Result {
	det := multi.NewDetector(c.opts)
	if c.active {
		return det.DetectActive(c.s, labeler{c.s})
	}
	return det.Detect(c.s)
}

// goldenFingerprint flattens everything detection-relevant about a
// result at bit level: the strategy, degradation and query count, every
// detection, and every candidate's features, neighborhood size, extents
// and second-difference z.
func goldenFingerprint(r *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strat=%v degraded=%v reason=%q queries=%d;", r.Strategy, r.Degraded, r.DegradeReason, r.Queries)
	for _, d := range r.Anomalies {
		fmt.Fprintf(&b, "a(%d,%v,%v,%b);", d.Index, d.Class, d.Subtype, d.Confidence)
	}
	for _, d := range r.ChangePoints {
		fmt.Fprintf(&b, "c(%d,%b);", d.Index, d.Confidence)
	}
	for _, c := range r.Candidates {
		fmt.Fprintf(&b, "k(%d,%b,%b,%b,%b,%b,%v,%b,%d,%d,%d,%b);",
			c.Index, c.Magnitude, c.Correlation, c.Variance, c.Asymmetry,
			c.XCorr, c.Class, c.Confidence, len(c.INN), c.LeftExtent,
			c.RightExtent, c.SecondDiffZ)
	}
	return b.String()
}

// goldenOf reduces a result to its recorded form.
func goldenOf(name string, r *core.Result) multiGolden {
	g := multiGolden{Name: name, Strategy: r.Strategy.String(),
		Anomalies: []string{}, ChangePoints: []string{}}
	for _, d := range r.Anomalies {
		g.Anomalies = append(g.Anomalies, fmt.Sprintf("%d %v %v", d.Index, d.Subtype, d.Confidence))
	}
	for _, d := range r.ChangePoints {
		g.ChangePoints = append(g.ChangePoints, fmt.Sprintf("%d %v", d.Index, d.Confidence))
	}
	sum := sha256.Sum256([]byte(goldenFingerprint(r)))
	g.SHA256 = hex.EncodeToString(sum[:])
	return g
}

// TestMultiMatchesGolden replays the pinned cases and requires every
// result to match its recording bit for bit.
func TestMultiMatchesGolden(t *testing.T) {
	cases := multiGoldenCases()
	data, err := os.ReadFile(multiGoldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []multiGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden holds %d cases, want %d", len(want), len(cases))
	}
	for i, c := range cases {
		if want[i].Name != c.name {
			t.Fatalf("golden case %d is %q, want %q", i, want[i].Name, c.name)
		}
		got := goldenOf(c.name, c.run())
		if got.Strategy != want[i].Strategy ||
			strings.Join(got.Anomalies, ",") != strings.Join(want[i].Anomalies, ",") ||
			strings.Join(got.ChangePoints, ",") != strings.Join(want[i].ChangePoints, ",") {
			t.Errorf("%s: detections differ\n got %+v\nwant %+v", c.name, got, want[i])
			continue
		}
		if got.SHA256 != want[i].SHA256 {
			t.Errorf("%s: same detections, but the result fingerprint differs (features, neighborhoods or confidences moved)", c.name)
		}
	}
}

// TestOneChannelMatchesUnivariate: a one-channel series is the
// univariate series. For every d = 1 case the multivariate detector's
// result fingerprint equals core's univariate Detect (or DetectActive)
// on the channel's values, bit for bit.
func TestOneChannelMatchesUnivariate(t *testing.T) {
	checked := 0
	for _, c := range multiGoldenCases() {
		if len(c.s.Dims) != 1 {
			continue
		}
		det := core.NewDetector(c.opts)
		uni := series.New(c.s.Name, c.s.Dims[0])
		var want *core.Result
		if c.active {
			want = det.DetectActive(uni, labeler{c.s})
		} else {
			want = det.Detect(uni)
		}
		if got := c.run(); goldenFingerprint(got) != goldenFingerprint(want) {
			t.Errorf("%s: one-channel result differs from the univariate one", c.name)
		}
		checked++
	}
	if checked != 60 {
		t.Errorf("checked %d one-channel cases, want 60", checked)
	}
}
