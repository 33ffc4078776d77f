// Package scenario is the declarative taxonomy grid of the robustness
// evaluation: fault kind × series family × channel count × severity.
// Each cell expands into labeled scenario corpora generated
// deterministically from a seed — a clean family carrier (correlated
// across channels for d >= 2), corrupted by one fault family at the
// cell's severity, with ground truth recorded as fault-onset indices.
// The scenarios experiment (cabd-bench -exp scenarios) drives CABD and
// every baseline across the grid and scores them against these onsets.
//
// Faults are injected with the same RNG seed in every channel, so a
// d-channel scenario carries the same fault footprint in all channels —
// the correlated-failure shape (a shared upstream outage) that the
// multivariate detector's cross-channel machinery is built for. All
// injector position draws are value-independent, which is what makes
// the per-channel footprints line up.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"cabd/internal/faultgen"
	"cabd/internal/synth"
)

// Severity names an injection intensity: Rounds is how many times the
// fault family's Inject pass is applied (each pass corrupts ~2% of
// points, so severities compound).
type Severity struct {
	Name   string
	Rounds int
}

// The two standard severities of the grid.
var (
	Mild   = Severity{Name: "mild", Rounds: 1}
	Severe = Severity{Name: "severe", Rounds: 3}
)

// Cell is one point of the taxonomy grid.
type Cell struct {
	Kind     faultgen.Kind
	Family   synth.Family
	Channels int
	Severity Severity
}

// Name returns the canonical cell identifier used in benchmark output.
func (c Cell) Name() string {
	return fmt.Sprintf("%s/%s/d%d/%s", c.Kind, c.Family, c.Channels, c.Severity.Name)
}

// Scenario is one generated instance of a cell: the corrupted channels,
// the clean carrier they started from, and the fault-onset ground
// truth (indices in Dims coordinates).
type Scenario struct {
	Name  string
	Cell  Cell
	Dims  [][]float64
	Clean [][]float64
	Truth []int
}

// Grid declares the taxonomy to expand. Zero-value fields take the
// standard sweep via defaults().
type Grid struct {
	Kinds      []faultgen.Kind
	Families   []synth.Family
	Channels   []int
	Severities []Severity

	N    int   // points per scenario (default 1200)
	Reps int   // scenarios per cell (default 1)
	Seed int64 // base seed; every scenario derives its own from it
	Rho  float64
}

func (g Grid) defaults() Grid {
	if len(g.Kinds) == 0 {
		// The benchmark's required taxonomy: every fault family except
		// nan (subsumed by gap at scenario scale) and dropout (shortens
		// the series, which the per-cell truth protocol handles but the
		// univariate baselines' index bookkeeping does not need).
		g.Kinds = []faultgen.Kind{faultgen.KindDrift, faultgen.KindGap,
			faultgen.KindFlatline, faultgen.KindLevelShift,
			faultgen.KindSeasonalSwing, faultgen.KindExtreme}
	}
	if len(g.Families) == 0 {
		g.Families = synth.Families()
	}
	if len(g.Channels) == 0 {
		g.Channels = []int{1, 3}
	}
	if len(g.Severities) == 0 {
		g.Severities = []Severity{Mild, Severe}
	}
	if g.N <= 0 {
		g.N = 1200
	}
	if g.Reps <= 0 {
		g.Reps = 1
	}
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.Rho <= 0 || g.Rho >= 1 {
		g.Rho = 0.8
	}
	return g
}

// Cells expands the grid in deterministic order (kind-major, then
// family, channels, severity).
func (g Grid) Cells() []Cell {
	g = g.defaults()
	var out []Cell
	for _, k := range g.Kinds {
		for _, f := range g.Families {
			for _, d := range g.Channels {
				for _, sev := range g.Severities {
					out = append(out, Cell{Kind: k, Family: f, Channels: d, Severity: sev})
				}
			}
		}
	}
	return out
}

// Generate expands every cell into Reps scenarios. The result is fully
// determined by the grid: scenario i of cell j always sees the same
// derived seed.
func (g Grid) Generate() []*Scenario {
	g = g.defaults()
	cells := g.Cells()
	out := make([]*Scenario, 0, len(cells)*g.Reps)
	for ci, cell := range cells {
		for rep := 0; rep < g.Reps; rep++ {
			seed := g.Seed + int64(ci)*1009 + int64(rep)*104729
			out = append(out, GenerateScenario(cell, seed, g.N, g.Rho))
		}
	}
	return out
}

// GenerateScenario builds one labeled scenario: a correlated carrier
// corrupted by the cell's fault at its severity, with onset truth.
func GenerateScenario(cell Cell, seed int64, n int, rho float64) *Scenario {
	if cell.Channels < 1 {
		cell.Channels = 1
	}
	if cell.Severity.Rounds < 1 {
		cell.Severity.Rounds = 1
	}
	clean := synth.CorrelatedDims(cell.Family, seed, n, cell.Channels, rho)
	dims := make([][]float64, len(clean))
	for k := range clean {
		dims[k] = append([]float64(nil), clean[k]...)
	}

	var truth []int
	for round := 0; round < cell.Severity.Rounds; round++ {
		// One fault seed per round, shared by every channel: identical
		// RNG draws put the fault footprint at the same positions in
		// all channels.
		faultSeed := seed*31 + int64(round)*7919 + 17
		var rep faultgen.Report
		before := len(dims[0])
		for k := range dims {
			rng := rand.New(rand.NewSource(faultSeed))
			dims[k], rep = faultgen.Inject(rng, dims[k], cell.Kind)
		}
		if len(dims[0]) != before {
			// A shortening fault (dropout): remap the already-collected
			// onsets through the removal before adding this round's.
			truth = remapThroughRemoval(truth, rep.Indices)
			truth = append(truth, onsetsAfterRemoval(rep.Indices)...)
		} else {
			truth = append(truth, Onsets(rep.Indices)...)
		}
	}
	// A removed tail segment maps one past the shortened end; clamp
	// every onset into the final coordinate range.
	if last := len(dims[0]) - 1; last >= 0 {
		for i, t := range truth {
			if t > last {
				truth[i] = last
			}
		}
	}
	sort.Ints(truth)
	truth = dedup(truth)
	return &Scenario{
		Name:  fmt.Sprintf("%s/s%d", cell.Name(), seed),
		Cell:  cell,
		Dims:  dims,
		Clean: clean,
		Truth: truth,
	}
}

// Onsets collapses a report's corrupted positions into segment starts:
// one truth index per contiguous stretch. Detectors are scored on
// finding each fault, not on covering its every point.
func Onsets(indices []int) []int {
	if len(indices) == 0 {
		return nil
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	out := []int{sorted[0]}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] > sorted[i-1]+1 {
			out = append(out, sorted[i])
		}
	}
	return out
}

// remapThroughRemoval shifts truth indices (in pre-removal coordinates)
// into post-removal coordinates: each index drops by the number of
// removed positions before it.
func remapThroughRemoval(truth, removed []int) []int {
	if len(truth) == 0 || len(removed) == 0 {
		return truth
	}
	sortedRm := append([]int(nil), removed...)
	sort.Ints(sortedRm)
	out := make([]int, 0, len(truth))
	for _, t := range truth {
		shift := sort.SearchInts(sortedRm, t)
		nt := t - shift
		if nt < 0 {
			nt = 0
		}
		out = append(out, nt)
	}
	return out
}

// onsetsAfterRemoval maps each removed segment's start to its position
// in the shortened series (the index where the gap now sits).
func onsetsAfterRemoval(removed []int) []int {
	starts := Onsets(removed)
	return remapThroughRemoval(starts, removed)
}

func dedup(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, v := range xs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
