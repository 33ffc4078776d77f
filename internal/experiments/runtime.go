package experiments

import (
	"encoding/json"
	"io"
	"os"

	"cabd/internal/baselines/common"
	"cabd/internal/baselines/donut"
	"cabd/internal/baselines/knncad"
	"cabd/internal/baselines/luminol"
	"cabd/internal/baselines/numenta"
	"cabd/internal/baselines/twitteresd"
	"cabd/internal/core"
	"cabd/internal/obs"
	"cabd/internal/synth"
)

// clk is the package's time source for every runtime measurement.
// Production keeps the wall clock (these sweeps measure real hardware);
// tests swap in an obs.FakeClock so measured durations are exact and the
// printers/tables can be asserted deterministically.
var clk obs.Clock = obs.Wall

// Fig11Point is one (algorithm, size) runtime measurement of Figure 11.
type Fig11Point struct {
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	Seconds   float64 `json:"seconds"`
}

// Fig11Sizes is the data-size sweep of the runtime study (paper: up to
// 20k points).
var Fig11Sizes = []int{2000, 5000, 10000, 20000}

// Fig11 reproduces Figure 11: runtime versus data size for CABD with and
// without the INN optimizations, and the baseline detectors. Labeling
// time is excluded (runs are unsupervised). Sizes can be overridden for
// quick benchmark runs.
func Fig11(sizes []int) []Fig11Point {
	if len(sizes) == 0 {
		sizes = Fig11Sizes
	}
	var out []Fig11Point
	for _, n := range sizes {
		s := synth.YahooLike(42, n)
		timeIt := func(name string, f func()) {
			start := clk.Now()
			f()
			out = append(out, Fig11Point{name, n, clk.Now().Sub(start).Seconds()})
		}
		timeIt("CABD (optimized)", func() {
			core.NewDetector(core.Options{Strategy: core.BinaryINN}).Detect(s)
		})
		timeIt("CABD (no opt)", func() {
			core.NewDetector(core.Options{Strategy: core.MutualSetINN}).Detect(s)
		})
		dets := []common.Detector{
			luminol.New(luminol.Config{}),
			twitteresd.New(twitteresd.Config{}),
			knncad.New(knncad.Config{}),
			numenta.New(numenta.Config{}),
		}
		for _, det := range dets {
			d := det
			timeIt(d.Name(), func() { d.Detect(s) })
		}
		// DONUT is the slow deep-model row; keep its training modest so
		// the sweep finishes, the ordering is what matters.
		timeIt("DONUT", func() {
			donut.New(donut.Config{Epochs: 5}).Detect(s)
		})
	}
	return out
}

// PrintFig11 renders the runtime sweep.
func PrintFig11(w io.Writer, pts []Fig11Point) {
	fprintf(w, "Figure 11: runtime (seconds) vs data size\n")
	fprintf(w, "%-18s %8s %10s\n", "algorithm", "n", "seconds")
	for _, p := range pts {
		fprintf(w, "%-18s %8d %10.3f\n", p.Algorithm, p.N, p.Seconds)
	}
}

// StageRow is one per-stage runtime share of an instrumented CABD run
// (the where-does-the-time-go breakdown Figure 11 cannot show, since its
// baseline rows have no recorder).
type StageRow struct {
	N       int     `json:"n"`
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
	Frac    float64 `json:"frac"` // share of the run's stage-sum total
}

// StageProfile runs the optimized detector with an obs recorder attached
// on the Fig. 11 synthetic workload and reports per-stage wall time and
// share, per data size. The second return is the recorder's cumulative
// state across the whole sweep (counters, degrade reasons, histograms)
// for merging into the runtime snapshot.
func StageProfile(sizes []int) ([]StageRow, *obs.Snapshot) {
	if len(sizes) == 0 {
		sizes = []int{2000}
	}
	rec := obs.New()
	var out []StageRow
	for _, n := range sizes {
		s := synth.YahooLike(42, n)
		res := core.NewDetector(core.Options{Obs: rec}).Detect(s)
		total := res.Stages.Total().Seconds()
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			d := res.Stages.Get(st)
			if d <= 0 {
				continue
			}
			row := StageRow{N: n, Stage: st.String(), Seconds: d.Seconds()}
			if total > 0 {
				row.Frac = d.Seconds() / total
			}
			out = append(out, row)
		}
	}
	snap := rec.Snapshot()
	return out, &snap
}

// PrintStageProfile renders the stage breakdown.
func PrintStageProfile(w io.Writer, rows []StageRow) {
	fprintf(w, "Pipeline stage profile: per-stage wall time (obs recorder)\n")
	fprintf(w, "%8s %-12s %10s %7s\n", "n", "stage", "seconds", "share")
	for _, r := range rows {
		fprintf(w, "%8d %-12s %10.4f %6.1f%%\n", r.N, r.Stage, r.Seconds, 100*r.Frac)
	}
}

// RuntimeSnapshot aggregates the machine-readable runtime results that
// cmd/cabd-bench emits as BENCH_runtime.json.
type RuntimeSnapshot struct {
	Fig11  []Fig11Point `json:"fig11,omitempty"`
	Stages []StageRow   `json:"stage_profile,omitempty"`
	// Obs is the metrics-recorder snapshot of the stage-profile sweep,
	// merged in under -metrics.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Empty reports whether the snapshot holds no measurements.
func (s RuntimeSnapshot) Empty() bool {
	return len(s.Fig11) == 0 && len(s.Stages) == 0 && s.Obs == nil
}

// WriteRuntimeJSON writes the snapshot to path as indented JSON.
func WriteRuntimeJSON(path string, snap RuntimeSnapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
