package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"cabd/internal/changepoint"
	"cabd/internal/core"
	"cabd/internal/eval"
	"cabd/internal/multi"
	"cabd/internal/sanitize"
	"cabd/internal/scenario"
	"cabd/internal/series"
	"cabd/internal/synth"
)

// ScenarioTol is the onset-matching tolerance of the taxonomy
// benchmark: a detection within +-5 points of a fault onset counts.
// Wider than MatchTol because several fault families (drift, seasonal
// swing) corrupt gradually, so the first detectable point sits a few
// steps past the labeled onset.
const ScenarioTol = 5

// ScenarioScore is one algorithm's quality on one taxonomy cell.
type ScenarioScore struct {
	Algorithm  string  `json:"algorithm"`
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
	F1         float64 `json:"f1"`
	TP         int     `json:"tp"`
	FP         int     `json:"fp"`
	FN         int     `json:"fn"`
	Detections int     `json:"detections"`
}

// ScenarioCellResult is one cell of the fault-taxonomy grid with every
// algorithm scored against the cell's fault-onset ground truth.
type ScenarioCellResult struct {
	Cell     string          `json:"cell"`
	Kind     string          `json:"kind"`
	Family   string          `json:"family"`
	Channels int             `json:"channels"`
	Severity string          `json:"severity"`
	N        int             `json:"n"`
	Truth    int             `json:"truth"`
	Scores   []ScenarioScore `json:"scores"`
}

// ScenarioBenchResult is the full taxonomy-grid benchmark: per-cell
// scores plus a per-algorithm summary averaged over the grid.
type ScenarioBenchResult struct {
	Tol     int                  `json:"tol"`
	Cells   []ScenarioCellResult `json:"cells"`
	Summary []ScenarioScore      `json:"summary"`
}

// ScenarioConfig parameterizes the taxonomy benchmark. The zero value
// takes the standard grid via defaults().
type ScenarioConfig struct {
	Grid scenario.Grid
	Tol  int
}

func (c ScenarioConfig) defaults() ScenarioConfig {
	if len(c.Grid.Families) == 0 {
		// Two families by default: the flat carrier (the easy reference)
		// and the seasonal carrier (the paper's event-bearing shape).
		// -full widens to every family.
		c.Grid.Families = []synth.Family{synth.FamilyFlat, synth.FamilySeasonal}
	}
	if c.Grid.N <= 0 {
		c.Grid.N = 800
	}
	if c.Tol <= 0 {
		c.Tol = ScenarioTol
	}
	return c
}

// ScenarioSmokeConfig is the CI smoke configuration: every fault kind
// and both channel counts (the acceptance axes), one family, one
// severity, short series. Runs in seconds.
func ScenarioSmokeConfig() ScenarioConfig {
	return ScenarioConfig{Grid: scenario.Grid{
		Families:   []synth.Family{synth.FamilyFlat},
		Severities: []scenario.Severity{scenario.Mild},
		N:          500,
	}}
}

// ScenarioFullConfig is the paper-scale configuration: every family,
// both severities, long series.
func ScenarioFullConfig() ScenarioConfig {
	return ScenarioConfig{Grid: scenario.Grid{
		Families: synth.Families(),
		N:        1200,
	}}
}

// ScenarioBench drives CABD (the joint multivariate detector) and every
// baseline across the fault-taxonomy grid. Univariate baselines handle
// d-channel cells per channel with detections unioned — the classic
// adaptation the joint detector competes against. The supervised
// baselines receive the cell's true contamination; PELT receives its
// brute-forced best penalty (the Fig9 protocol).
func ScenarioBench(cfg ScenarioConfig) ScenarioBenchResult {
	cfg = cfg.defaults()
	scens := cfg.Grid.Generate()
	res := ScenarioBenchResult{Tol: cfg.Tol}
	sums := map[string]*ScenarioScore{}
	var order []string
	record := func(cell *ScenarioCellResult, name string, got []int, truth []int) {
		m := eval.Match(got, truth, cfg.Tol)
		cell.Scores = append(cell.Scores, ScenarioScore{
			Algorithm: name,
			Precision: m.Precision, Recall: m.Recall, F1: m.F1,
			TP: m.TP, FP: m.FP, FN: m.FN,
			Detections: len(got),
		})
		if _, ok := sums[name]; !ok {
			sums[name] = &ScenarioScore{Algorithm: name}
			order = append(order, name)
		}
		s := sums[name]
		s.Precision += m.Precision
		s.Recall += m.Recall
		s.F1 += m.F1
		s.TP += m.TP
		s.FP += m.FP
		s.FN += m.FN
		s.Detections += len(got)
	}
	for _, sc := range scens {
		cell := ScenarioCellResult{
			Cell:     sc.Cell.Name(),
			Kind:     string(sc.Cell.Kind),
			Family:   string(sc.Cell.Family),
			Channels: sc.Cell.Channels,
			Severity: sc.Cell.Severity.Name,
			N:        len(sc.Dims[0]),
			Truth:    len(sc.Truth),
		}
		// The same sanitize pass the cabd facade runs: bad values (NaN
		// runs, hostile floats) repaired by interpolation across whole
		// time steps, with the report kept. The default policy preserves
		// length, so detection indices stay in scenario coordinates.
		repaired, _, srep, serr := sanitize.Multi(sc.Dims, sanitize.Config{})
		if serr != nil {
			repaired, srep = sc.Dims, nil
		}
		ms := multi.NewSeries(sc.Name, repaired)
		joint := multi.NewDetector(core.Options{}).Detect(ms)
		// CABD's answer is the whole pipeline's: detector verdicts plus
		// what the sanitize stage intercepted — for the pipeline,
		// repairing a corrupted stretch IS detecting it. Contiguous
		// repairs collapse to onsets like the truth does.
		cabdGot := unionInts(joint.AnomalyIndices(), joint.ChangePointIndices())
		if srep != nil {
			cabdGot = unionInts(cabdGot, scenario.Onsets(srep.Repaired))
			cabdGot = unionInts(cabdGot, scenario.Onsets(srep.Dropped))
		}
		record(&cell, "CABD", cabdGot, sc.Truth)
		cont := float64(len(sc.Truth)) / float64(len(sc.Dims[0]))
		if cont < 0.01 {
			cont = 0.01
		}
		dets := append(unsupervisedDetectors(), supervisedDetectors(cont)...)
		for _, det := range dets {
			var got []int
			for k, vals := range repaired {
				got = unionInts(got, det.Detect(series.New(fmt.Sprintf("%s/c%d", sc.Name, k), vals)))
			}
			record(&cell, det.Name(), got, sc.Truth)
		}
		record(&cell, "PELT", peltUnion(repaired, sc.Truth, cfg.Tol), sc.Truth)
		res.Cells = append(res.Cells, cell)
	}
	n := float64(len(scens))
	for _, name := range order {
		s := sums[name]
		if n > 0 {
			s.Precision /= n
			s.Recall /= n
			s.F1 /= n
		}
		res.Summary = append(res.Summary, *s)
	}
	return res
}

// peltUnion runs PELT per channel at its brute-forced best penalty
// (the Fig9 protocol: the baseline gets the parameter CABD never sees)
// and unions the change points across channels.
func peltUnion(dims [][]float64, truth []int, tol int) []int {
	var got []int
	for _, vals := range dims {
		vals := vals
		_, cps, _ := changepoint.BestPenalty(
			func(p float64) []int { return changepoint.PELT(vals, p) },
			func(cps []int) float64 { return eval.Match(cps, truth, tol).F1 },
			1, 100, 3)
		got = unionInts(got, cps)
	}
	return got
}

// unionInts merges two sorted-or-not index slices into one sorted,
// deduplicated slice.
func unionInts(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i > 0 && v == out[j-1] {
			continue
		}
		out[j] = v
		j++
	}
	return out[:j]
}

// PrintScenarios renders the taxonomy benchmark: the per-algorithm
// summary and the per-cell CABD line.
func PrintScenarios(w io.Writer, res ScenarioBenchResult) {
	fprintf(w, "Scenarios: fault-taxonomy grid (tol=%d, %d cells)\n", res.Tol, len(res.Cells))
	fprintf(w, "  %-12s %7s %7s %7s %6s\n", "algorithm", "P", "R", "F", "dets")
	for _, s := range res.Summary {
		fprintf(w, "  %-12s %7s %7s %7s %6d\n", s.Algorithm, pct(s.Precision), pct(s.Recall), pct(s.F1), s.Detections)
	}
	fprintf(w, "  per-cell CABD:\n")
	for _, c := range res.Cells {
		var cabd ScenarioScore
		for _, s := range c.Scores {
			if s.Algorithm == "CABD" {
				cabd = s
				break
			}
		}
		fprintf(w, "    %-32s truth=%-3d F=%s dets=%d\n",
			c.Cell, c.Truth, pct(cabd.F1), cabd.Detections)
	}
}

// WriteScenariosJSON writes the benchmark to path as indented JSON.
func WriteScenariosJSON(path string, res ScenarioBenchResult) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
