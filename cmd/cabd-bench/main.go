// Command cabd-bench regenerates the paper's tables and figures
// (Section V). Each experiment prints the same rows/series the paper
// reports; DESIGN.md maps experiment ids to the modules involved and
// EXPERIMENTS.md records measured-versus-paper numbers.
//
//	cabd-bench -exp table1            # one experiment
//	cabd-bench -exp all               # everything
//	cabd-bench -exp fig11 -full       # paper-scale datasets (slow)
//
// Experiment ids: fig1 fig3 table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// table2 fig12 fig13 fig14 multi chaos obs scenarios stream load.
//
// The scenarios experiment sweeps the fault-taxonomy grid (fault kind x
// series family x channel count x severity) with CABD's joint
// multivariate detector against every univariate baseline (run
// per-channel, detections unioned) and writes -scenjson (default
// BENCH_scenarios.json). -smoke shrinks it to the CI grid; -full widens
// to every family.
//
// The runtime experiments (fig11, obs) additionally write their rows to
// a machine-readable snapshot (-json, default BENCH_runtime.json; empty
// string disables). With -metrics the obs experiment also merges its
// recorder snapshot — counters, degrade reasons, stage histograms — into
// the JSON. The load experiment drives a collector fleet (N cabd-agents
// x M streams) through a mid-run server crash/restart, verifies zero
// detection loss, probes the shed point, and writes -loadjson (default
// BENCH_load.json). The stream experiment benchmarks the streaming path (per-point cost per
// window, checkpoint/resume equality, many-stream memory bounds, the
// stream registry over HTTP) and writes -streamjson (default
// BENCH_stream.json); a stream resumed from a mid-stream checkpoint that
// emits different detections than the uninterrupted stream fails the
// run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cabd/internal/experiments"
	"cabd/internal/experiments/loadbench"
	"cabd/internal/experiments/streambench"
)

type runner struct {
	id   string
	desc string
	run  func(sc experiments.Scale)
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	full := flag.Bool("full", false, "paper-scale datasets (slow: tens of minutes)")
	list := flag.Bool("list", false, "list experiment ids")
	jsonPath := flag.String("json", "BENCH_runtime.json",
		"runtime snapshot output for fig11/obs ('' disables)")
	metrics := flag.Bool("metrics", false,
		"merge the obs recorder snapshot (counters, histograms) of the obs experiment into the runtime JSON")
	loadJSON := flag.String("loadjson", "BENCH_load.json",
		"collector-fleet benchmark output for the load experiment ('' disables)")
	streamJSON := flag.String("streamjson", "BENCH_stream.json",
		"streaming benchmark output for the stream experiment ('' disables)")
	scenJSON := flag.String("scenjson", "BENCH_scenarios.json",
		"taxonomy-grid benchmark output for the scenarios experiment ('' disables)")
	smoke := flag.Bool("smoke", false,
		"scenarios experiment only: CI smoke grid (one family, mild severity, short series)")
	flag.Parse()

	sc := experiments.Scale{}
	if *full {
		sc = experiments.Full()
	}
	out := os.Stdout
	var snap experiments.RuntimeSnapshot

	runners := []runner{
		{"fig1", "IoT example: error detection vs event preservation", func(sc experiments.Scale) {
			experiments.PrintFig1(out, experiments.Fig1(sc))
		}},
		{"fig3", "GMM clustering of candidate scores", func(sc experiments.Scale) {
			experiments.PrintFig3(out, experiments.Fig3(sc))
		}},
		{"table1", "CABD quality with and without active learning", func(sc experiments.Scale) {
			experiments.PrintTable1(out, experiments.Table1(sc))
		}},
		{"fig5", "BNF vs anomaly and change-point density", func(sc experiments.Scale) {
			experiments.PrintFig5(out, experiments.Fig5(sc))
		}},
		{"fig6", "quality and queries vs required confidence", func(sc experiments.Scale) {
			experiments.PrintFig6(out, experiments.Fig6(sc))
		}},
		{"fig7", "vs unsupervised anomaly baselines", func(sc experiments.Scale) {
			experiments.PrintCompare(out, "Figure 7: unsupervised anomaly detection", experiments.Fig7(sc))
		}},
		{"fig8", "vs supervised anomaly baselines", func(sc experiments.Scale) {
			experiments.PrintCompare(out, "Figure 8: supervised anomaly detection", experiments.Fig8(sc))
		}},
		{"fig9", "vs change-point baselines", func(sc experiments.Scale) {
			experiments.PrintFig9(out, experiments.Fig9(sc))
		}},
		{"fig10", "vs combined HBOS+PELT baseline", func(sc experiments.Scale) {
			experiments.PrintFig10(out, experiments.Fig10(sc))
		}},
		{"fig11", "runtime vs data size", func(sc experiments.Scale) {
			sizes := []int{2000, 5000}
			if *full {
				sizes = experiments.Fig11Sizes
			}
			snap.Fig11 = experiments.Fig11(sizes)
			experiments.PrintFig11(out, snap.Fig11)
		}},
		{"obs", "pipeline stage profile from the observability recorder", func(sc experiments.Scale) {
			sizes := []int{2000, 5000}
			if *full {
				sizes = experiments.Fig11Sizes
			}
			rows, osnap := experiments.StageProfile(sizes)
			snap.Stages = rows
			if *metrics {
				snap.Obs = osnap
			}
			experiments.PrintStageProfile(out, rows)
		}},
		{"table2", "active-learning accuracy/confidence trace", func(sc experiments.Scale) {
			experiments.PrintTable2(out, experiments.Table2(sc))
		}},
		{"fig12", "INN vs KNN neighborhoods", func(sc experiments.Scale) {
			experiments.PrintFig12(out, experiments.Fig12(sc))
		}},
		{"fig13", "single-score ablation", func(sc experiments.Scale) {
			experiments.PrintFig13(out, experiments.Fig13(sc))
		}},
		{"fig14", "IMR repair with and without CABD", func(sc experiments.Scale) {
			experiments.PrintFig14(out, experiments.Fig14(sc))
		}},
		{"multi", "extension: joint multivariate vs per-dimension union", func(sc experiments.Scale) {
			experiments.PrintMultiExtension(out, experiments.MultiExtension(sc))
		}},
		{"chaos", "robustness: fault injection across families and datasets", func(sc experiments.Scale) {
			experiments.PrintChaos(out, experiments.Chaos(sc))
		}},
		{"scenarios", "fault-taxonomy grid: CABD vs every baseline across kind x family x channels x severity", func(sc experiments.Scale) {
			cfg := experiments.ScenarioConfig{}
			if *smoke {
				cfg = experiments.ScenarioSmokeConfig()
			} else if *full {
				cfg = experiments.ScenarioFullConfig()
			}
			res := experiments.ScenarioBench(cfg)
			experiments.PrintScenarios(out, res)
			if *scenJSON != "" {
				if err := experiments.WriteScenariosJSON(*scenJSON, res); err != nil {
					fmt.Fprintf(os.Stderr, "cabd-bench: writing %s: %v\n", *scenJSON, err)
					os.Exit(1)
				}
				fmt.Fprintf(out, "taxonomy benchmark written to %s\n", *scenJSON)
			}
		}},
		{"stream", "streaming path: per-point cost, checkpoint/resume equality, many-stream scale, stream registry over HTTP", func(sc experiments.Scale) {
			cfg := streambench.StreamBenchConfig{}
			if *full {
				cfg = streambench.StreamBenchConfig{
					Windows:   []int{64, 128, 256, 512, 1024},
					HopsPer:   16,
					Streams:   100000,
					PerStream: 96,
					Registry:  2048,
					Conc:      32,
				}
			}
			res := streambench.StreamBench(cfg)
			streambench.PrintStream(out, res)
			for _, c := range res.Cost {
				if !c.ResumeEqual {
					fmt.Fprintf(os.Stderr, "cabd-bench: stream experiment: window %d checkpoint/resume detections DIVERGED\n", c.Window)
					os.Exit(1)
				}
			}
			if *streamJSON != "" {
				if err := streambench.WriteStreamJSON(*streamJSON, res); err != nil {
					fmt.Fprintf(os.Stderr, "cabd-bench: writing %s: %v\n", *streamJSON, err)
					os.Exit(1)
				}
				fmt.Fprintf(out, "streaming benchmark written to %s\n", *streamJSON)
			}
		}},
		{"load", "collector fleet: N agents x M streams, shed point, zero-loss restart", func(sc experiments.Scale) {
			cfg := loadbench.LoadConfig{}
			if *full {
				cfg = loadbench.LoadConfig{Agents: 8, Streams: 6, Values: 3000, RampMax: 64}
			}
			res, err := loadbench.LoadBench(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cabd-bench: load experiment: %v\n", err)
				os.Exit(1)
			}
			loadbench.PrintLoad(out, res)
			if !res.ZeroLoss {
				fmt.Fprintf(os.Stderr, "cabd-bench: load experiment LOST %d detections\n", res.Lost)
				os.Exit(1)
			}
			if *loadJSON != "" {
				if err := loadbench.WriteLoadJSON(*loadJSON, res); err != nil {
					fmt.Fprintf(os.Stderr, "cabd-bench: writing %s: %v\n", *loadJSON, err)
					os.Exit(1)
				}
				fmt.Fprintf(out, "load benchmark written to %s\n", *loadJSON)
			}
		}},
	}

	if *list {
		for _, r := range runners {
			fmt.Printf("%-8s %s\n", r.id, r.desc)
		}
		return
	}

	ids := map[string]runner{}
	var order []string
	for _, r := range runners {
		ids[r.id] = r
		order = append(order, r.id)
	}
	var selected []string
	if *exp == "all" {
		selected = order
	} else if _, ok := ids[*exp]; ok {
		selected = []string{*exp}
	} else {
		fmt.Fprintf(os.Stderr, "cabd-bench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	sort.SliceStable(selected, func(a, b int) bool {
		return indexOf(order, selected[a]) < indexOf(order, selected[b])
	})
	for _, id := range selected {
		r := ids[id]
		start := time.Now()
		r.run(sc)
		fmt.Fprintf(out, "  [%s completed in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
	if *jsonPath != "" && !snap.Empty() {
		if err := experiments.WriteRuntimeJSON(*jsonPath, snap); err != nil {
			fmt.Fprintf(os.Stderr, "cabd-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "runtime snapshot written to %s\n", *jsonPath)
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
