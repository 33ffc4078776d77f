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
// table2 fig12 fig13 fig14 multi chaos obs scenarios.
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
// the JSON. The speed of the streaming, serving and batch paths is
// measured by the repository benchmark (perfbench/), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cabd/internal/experiments"
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
	}

	if *list {
		for _, r := range runners {
			fmt.Printf("%-8s %s\n", r.id, r.desc)
		}
		return
	}

	var selected []runner
	for _, r := range runners {
		if *exp == "all" || *exp == r.id {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "cabd-bench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	for _, r := range selected {
		start := time.Now()
		r.run(sc)
		fmt.Fprintf(out, "  [%s completed in %.1fs]\n\n", r.id, time.Since(start).Seconds())
	}
	if *jsonPath != "" && !snap.Empty() {
		if err := experiments.WriteRuntimeJSON(*jsonPath, snap); err != nil {
			fmt.Fprintf(os.Stderr, "cabd-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "runtime snapshot written to %s\n", *jsonPath)
	}
}
