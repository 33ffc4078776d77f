// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section V). Each benchmark runs its experiment at a reduced
// scale (so `go test -bench=. -benchmem` completes in minutes) and
// reports the headline quantities as custom metrics; the full paper-scale
// tables print via `go run ./cmd/cabd-bench`. The per-experiment mapping
// lives in DESIGN.md, measured-vs-paper numbers in EXPERIMENTS.md.
package cabd

import (
	"strings"
	"testing"

	"cabd/internal/experiments"
)

// benchScale keeps every benchmark iteration in the hundreds of
// milliseconds to seconds range.
var benchScale = experiments.Scale{
	SynthN: 1000, SynthCount: 2,
	YahooN: 1000, YahooCount: 2,
	KPIN: 2000, KPICount: 1,
	IoTN: 800,
}

func BenchmarkTable1_Quality(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(benchScale)
	}
	for _, r := range rows {
		b.ReportMetric(100*r.ALAPF, r.Dataset+"_AP_F_AL_%")
		if r.HasChange {
			b.ReportMetric(100*r.ALCPF, r.Dataset+"_CP_F_AL_%")
		}
		b.ReportMetric(r.Queries, r.Dataset+"_queries")
	}
}

func BenchmarkFig1_IoTExample(b *testing.B) {
	var rows []experiments.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig1(benchScale)
	}
	for _, r := range rows {
		b.ReportMetric(100*r.APF, r.Algorithm+"_AP_F_%")
	}
}

func BenchmarkFig3_Clustering(b *testing.B) {
	var clusters []experiments.Fig3Cluster
	for i := 0; i < b.N; i++ {
		clusters = experiments.Fig3(benchScale)
	}
	b.ReportMetric(float64(len(clusters)), "clusters")
}

func BenchmarkFig5_BNF(b *testing.B) {
	var pts []experiments.Fig5Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig5(benchScale)
	}
	var avg float64
	for _, p := range pts {
		avg += p.BNF
	}
	b.ReportMetric(avg/float64(len(pts)), "avg_BNF")
}

func BenchmarkFig6_Confidence(b *testing.B) {
	sc := experiments.Scale{SynthN: 800, SynthCount: 1, YahooN: 400,
		YahooCount: 1, KPIN: 800, KPICount: 1, IoTN: 400}
	var pts []experiments.Fig6Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig6(sc)
	}
	// Report the γ = 0.8 low-density cell, Table I's default setting.
	for _, p := range pts {
		if p.Confidence == 0.8 && p.AnomalyPct == 1 {
			b.ReportMetric(100*p.APF, "AP_F_1pct_gamma08_%")
			b.ReportMetric(float64(p.Queries), "queries_1pct_gamma08")
		}
	}
}

func BenchmarkFig7_Unsupervised(b *testing.B) {
	var rows []experiments.CompareRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig7(benchScale)
	}
	for _, r := range rows {
		if r.Algorithm == "CABD" {
			b.ReportMetric(100*r.F1, "CABD_"+r.Family+"_F_%")
		}
	}
}

func BenchmarkFig8_Supervised(b *testing.B) {
	var rows []experiments.CompareRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig8(benchScale)
	}
	for _, r := range rows {
		if r.Algorithm == "CABD+AL" {
			b.ReportMetric(100*r.F1, "CABD_AL_"+r.Family+"_F_%")
		}
	}
}

func BenchmarkFig9_ChangePoint(b *testing.B) {
	var rows []experiments.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig9(benchScale)
	}
	for _, r := range rows {
		if r.Algorithm == "CABD w/ AL" || r.Algorithm == "PELT" {
			b.ReportMetric(100*r.F1, metricName(r.Family+"_"+r.Algorithm+"_F_%"))
		}
	}
}

func BenchmarkFig10_Combined(b *testing.B) {
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig10(benchScale)
	}
	for _, r := range rows {
		b.ReportMetric(100*r.F1, metricName(r.Family+"_"+r.Algorithm+"_F_%"))
	}
}

// metricName makes a label safe for testing.B.ReportMetric (no spaces).
func metricName(s string) string {
	return strings.NewReplacer(" ", "", "/", "", "(", "", ")", "").Replace(s)
}

func BenchmarkFig11_Runtime(b *testing.B) {
	var pts []experiments.Fig11Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig11([]int{2000})
	}
	for _, p := range pts {
		b.ReportMetric(p.Seconds, metricName(p.Algorithm+"_s"))
	}
}

func BenchmarkTable2_ALTrace(b *testing.B) {
	sc := experiments.Scale{SynthN: 400, SynthCount: 1, YahooN: 800,
		YahooCount: 3, KPIN: 800, KPICount: 1, IoTN: 800}
	var traces []experiments.Table2Trace
	for i := 0; i < b.N; i++ {
		traces = experiments.Table2(sc)
	}
	var finalAcc float64
	for _, tr := range traces {
		if len(tr.Rounds) > 0 {
			finalAcc += tr.Rounds[len(tr.Rounds)-1].Accuracy
		}
	}
	b.ReportMetric(finalAcc/float64(len(traces)), "avg_final_accuracy")
}

func BenchmarkFig12_INNvsKNN(b *testing.B) {
	sc := experiments.Scale{SynthN: 800, SynthCount: 1, YahooN: 800,
		YahooCount: 1, KPIN: 800, KPICount: 1, IoTN: 400}
	var rows []experiments.Fig12Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig12(sc)
	}
	for _, r := range rows {
		if r.Task == "anomaly" {
			b.ReportMetric(100*r.ALF, r.Variant+"_"+r.Family+"_F_%")
		}
	}
}

func BenchmarkFig13_ScoreAblation(b *testing.B) {
	sc := experiments.Scale{SynthN: 400, SynthCount: 1, YahooN: 800,
		YahooCount: 2, KPIN: 1500, KPICount: 1, IoTN: 400}
	var rows []experiments.Fig13Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig13(sc)
	}
	for _, r := range rows {
		b.ReportMetric(100*r.ALF, r.Family+"_"+r.Scores+"_F_%")
	}
}

func BenchmarkFig14_Repair(b *testing.B) {
	sc := experiments.Scale{SynthN: 800, SynthCount: 3, YahooN: 400,
		YahooCount: 1, KPIN: 800, KPICount: 1, IoTN: 400}
	var rows []experiments.Fig14Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig14(sc)
	}
	var before, guided, random float64
	for _, r := range rows {
		before += r.RMSBefore
		guided += r.RMSCABD
		random += r.RMSRandom
	}
	n := float64(len(rows))
	b.ReportMetric(before/n, "RMS_dirty")
	b.ReportMetric(guided/n, "RMS_IMR_CABD")
	b.ReportMetric(random/n, "RMS_IMR_random")
}

// BenchmarkDetectUnsupervised2k measures the core detector itself at the
// Figure 11 anchor size (2k points), the paper's 0.16-0.21 s row.
func BenchmarkDetectUnsupervised2k(b *testing.B) {
	sc := experiments.Scale{SynthN: 2000, SynthCount: 1, YahooN: 2000,
		YahooCount: 1, KPIN: 2000, KPICount: 1, IoTN: 800}
	ds := sc.YahooSuite()[0]
	det := newBenchDetector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(ds.S.Values)
	}
}

func newBenchDetector() *Detector { return New(Options{}) }

// BenchmarkDetect2kObs compares the 2k-point pipeline with no recorder
// against one with a shared Recorder attached. The nil case must stay
// within noise of BenchmarkDetectUnsupervised2k (the recorder hooks are
// nil-checked no-ops, zero extra allocations); the enabled case bounds the
// real instrumentation cost (<5% is the acceptance budget).
func BenchmarkDetect2kObs(b *testing.B) {
	sc := experiments.Scale{SynthN: 2000, SynthCount: 1, YahooN: 2000,
		YahooCount: 1, KPIN: 2000, KPICount: 1, IoTN: 800}
	ds := sc.YahooSuite()[0]
	b.Run("nil", func(b *testing.B) {
		det := New(Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			det.Detect(ds.S.Values)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		det := New(Options{Obs: NewRecorder()})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			det.Detect(ds.S.Values)
		}
	})
}

func BenchmarkMultiExtension(b *testing.B) {
	sc := experiments.Scale{SynthN: 1200, SynthCount: 1, YahooN: 400,
		YahooCount: 1, KPIN: 800, KPICount: 1, IoTN: 400}
	var rows []experiments.MultiRow
	for i := 0; i < b.N; i++ {
		rows = experiments.MultiExtension(sc)
	}
	for _, r := range rows {
		if r.Variant == "joint" {
			b.ReportMetric(100*r.APF, "joint_d"+itoa(r.Dims)+"_F_%")
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}
