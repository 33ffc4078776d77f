// Command perfbench is the repository's benchmark. It drives the CABD
// system through its public entry points: the cabd facade, the HTTP
// client against an in-process server, and the exported functions of
// each internal layer.
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 15 --trace 0
//
// Workloads: batch (Detector.Detect), interactive (one label turnaround
// of DetectInteractive), stream (one analyzing StreamDetector.Push) and
// serve (one HTTP request, open loop, then a capacity phase). Inputs
// are generated from --seed before timing.
//
// With --trace 0 the run measures the end-to-end metrics. With --trace 1
// it alternates untraced and traced blocks, records spans around every
// layer call, runs a sweep over every layer's entry point on the
// workload's inputs, and reports the per-layer metrics. The last line of
// standard output is the result; the line before it is a report with
// the input fingerprint, the environment and the details behind each
// figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"cabd/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"points_per_s", "points/s"},
	{"f1", "ratio"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"sanitize.us_per_op", "us"},
	{"core.candidates_ms", "ms"},
	{"core.inn_score_ms", "ms"},
	{"core.bootstrap_ms", "ms"},
	{"core.classify_ms", "ms"},
	{"core.al_round_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.candidates", "count"},
	{"core.candidate_yield", "ratio"},
	{"core.degraded_frac", "ratio"},
	{"core.queries_per_series", "count"},
	{"inn.build_ms", "ms"},
	{"inn.query_us", "us"},
	{"inn.neighborhood_len", "count"},
	{"inn.memo_hit_ratio", "ratio"},
	{"inn.nd_query_us", "us"},
	{"gmm.fit_ms", "ms"},
	{"forest.train_ms", "ms"},
	{"forest.predict_us_per_row", "us"},
	{"forest.retrains_per_series", "count"},
	{"multi.detect_ms", "ms"},
	{"multi.candidates", "count"},
	{"stream.push_us", "us"},
	{"stream.inn_score_ms_per_hop", "ms"},
	{"stream.classify_ms_per_hop", "ms"},
	{"stream.substrate_ms_per_hop", "ms"},
	{"stream.live_bytes_per_stream", "bytes"},
	{"server.self_ms", "ms"},
	{"server.http_request_ms", "ms"},
	{"server.shed", "count"},
	{"httpapi.encode_us", "us"},
	{"httpapi.decode_us", "us"},
	{"loadgen.lag_p50_ms", "ms"},
	{"loadgen.lag_max_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "bytes"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// setupReps is how many times an untraced run sets the workload up;
// setup_s is the median.
const setupReps = 5

// traceBlocks is how many blocks a traced run alternates, untraced
// first, so drift in the machine's speed hits both modes alike.
const traceBlocks = 6

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "batch, interactive, stream or serve")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := flag.String("out", ".bench_build", "directory for span files")
	flag.Parse()
	if _, err := newWorkload(*name); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	rep := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"env": map[string]any{
			"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(), "git_commit": gitCommit(),
		},
	}
	var res result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(*name, *seed, d, rep)
	} else {
		res, err = runTraced(*name, *seed, d, *out, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode output: %w", err)
	}
	_, err = fmt.Println(string(b))
	return err
}

// gitCommit is the commit the benchmark was built from, as the build
// script found it, or "unknown" outside a git checkout.
func gitCommit() string {
	if c := os.Getenv("BENCH_GIT_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// setUp sets a fresh workload up and times it.
func setUp(name string, seed int64, traced bool) (workload, time.Duration, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := w.setup(seed, traced); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("set up %s: %w", name, err)
	}
	return w, time.Since(t0), nil
}

func runEndToEnd(name string, seed int64, d time.Duration, rep map[string]any) (result, error) {
	var setups []float64
	var w workload
	var fp string
	sameInputs := true
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.close()
		}
		var took time.Duration
		var err error
		if w, took, err = setUp(name, seed, false); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
		if r == 0 {
			fp = w.fingerprint()
		} else if w.fingerprint() != fp {
			sameInputs = false
		}
	}
	defer w.close()

	var p, thr *phase
	if sw, ok := w.(*serveWorkload); ok {
		// Serve measures latency at a fixed rate, then throughput at
		// capacity.
		p = w.measure(d*7/10, nil)
		thr = sw.capacity(d - d*7/10)
	} else {
		p = w.measure(d, nil)
		thr = p
	}
	fin := &phase{}
	f1 := w.finish(fin)
	heap := w.liveHeapMB()

	lat, byKind := p.latency()
	attempted := p.attempted + fin.attempted
	failed := p.failed + fin.failed
	errs := append(append([]string{}, p.errors...), fin.errors...)
	if thr != p {
		attempted += thr.attempted
		failed += thr.failed
		errs = append(errs, thr.errors...)
	}
	if !sameInputs {
		failed++
		errs = append(errs, "the same seed generated different inputs across set-ups")
	}
	rep["fingerprint"] = fp
	rep["setup_s"] = setups
	rep["latency"] = lat
	if byKind != nil {
		rep["latency_by_kind"] = byKind
	}
	rep["throughput"] = map[string]any{"points": thr.points, "wall_s": thr.wall.Seconds()}
	rep["error_rate"] = float64(failed) / float64(max(attempted, 1))
	rep["errors"] = errs
	if lat.N == 0 {
		return result{}, fmt.Errorf("%s measured no ops in %v", name, d)
	}
	m := map[string]float64{
		"setup_s":         median(setups),
		"latency_p50_ms":  lat.P50Ms,
		"latency_tail_ms": lat.TailMs,
		"points_per_s":    float64(thr.points) / thr.wall.Seconds(),
		"f1":              f1,
		"live_heap_mb":    heap,
	}
	metrics, err := withUnits(endToEnd, m)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, err
}

// withUnits attaches units to m, keeping exactly the metrics of defs. A
// metric that was not measured or is not a finite number is an error.
func withUnits(defs []metricDef, m map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}

// runtimeCounters reads the allocation and CPU counters the runtime
// metrics are deltas of.
type runtimeCounters struct{ objects, bytes, gcCPU, totalCPU float64 }

var runtimeSamples = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

func runTraced(name string, seed int64, d time.Duration, outDir string, rep map[string]any) (result, error) {
	w, took, err := setUp(name, seed, true)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	rep["fingerprint"] = w.fingerprint()
	rep["setup_s"] = []float64{took.Seconds()}

	tr := newTracer(wallClock{})
	plain, traced := &phase{}, &phase{}
	var rs recState
	var rtBefore, rtAfter runtimeCounters
	var rt runtimeCounters
	block := d / traceBlocks
	for b := 0; b < traceBlocks; b++ {
		if b%2 == 0 {
			rtBefore = readRuntime()
			plain.merge(w.measure(block, nil))
			rtAfter = readRuntime()
			rt.objects += rtAfter.objects - rtBefore.objects
			rt.bytes += rtAfter.bytes - rtBefore.bytes
			rt.gcCPU += rtAfter.gcCPU - rtBefore.gcCPU
			rt.totalCPU += rtAfter.totalCPU - rtBefore.totalCPU
			continue
		}
		before := readRec(w.recorder())
		traced.merge(w.measure(block, tr))
		rs.addDelta(readRec(w.recorder()), before)
	}
	fin := &phase{}
	w.finish(fin)
	loopSpans := len(tr.spans)
	sw, err := sweep(w.probes(), tr)
	if err != nil {
		return result{}, err
	}
	w.liveHeapMB()

	plainLat, _ := plain.latency()
	tracedLat, _ := traced.latency()
	if plainLat.N == 0 || tracedLat.N == 0 {
		return result{}, fmt.Errorf("%s measured no ops in a block of %v", name, block)
	}
	// The sweep supplies every layer; what the workload's own loop
	// measured replaces it.
	m := sw
	source := make(map[string]string, len(perLayer))
	for _, def := range perLayer {
		source[def.name] = "sweep"
	}
	loop := loopMetrics(w, traced, rs, tr.spans[:loopSpans])
	for k, v := range loop {
		m[k] = v
		source[k] = "loop"
	}
	ops := float64(len(plain.lat))
	lags := append([]time.Duration(nil), plain.lags...)
	lags = append(lags, traced.lags...)
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	lagMs := make([]float64, len(lags))
	for i, l := range lags {
		lagMs[i] = durMs(l)
	}
	extra := map[string]float64{
		"loadgen.lag_p50_ms":    quantile(lagMs, 0.5),
		"loadgen.lag_max_ms":    quantile(lagMs, 1),
		"runtime.allocs_per_op": rt.objects / ops,
		"runtime.bytes_per_op":  rt.bytes / ops,
		"runtime.gc_cpu_frac":   rt.gcCPU / max(rt.totalCPU, 1e-9),
		"trace.overhead_frac":   tracedLat.P50Ms/plainLat.P50Ms - 1,
	}
	for k, v := range extra {
		m[k] = v
		source[k] = "loop"
	}

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, fmt.Errorf("create %s: %w", outDir, err)
	}
	if err := writeSpans(path, tr.spans); err != nil {
		return result{}, err
	}
	attempted := plain.attempted + traced.attempted + fin.attempted
	failed := plain.failed + traced.failed + fin.failed
	rep["latency_untraced"] = plainLat
	rep["latency_traced"] = tracedLat
	rep["error_rate"] = float64(failed) / float64(max(attempted, 1))
	rep["errors"] = append(append(append([]string{}, plain.errors...), traced.errors...), fin.errors...)
	rep["per_layer_source"] = source
	rep["spans"] = map[string]any{"file": path, "count": len(tr.spans), "by_name": spanTotals(tr.spans)}
	rep["layer_checks"] = layerChecks(name, m, traced)
	rep["bases"] = map[string]any{
		"core.candidate_yield":       map[string]any{"detections": traced.detections, "candidates": rs.counters[obs.CounterCandidates], "source": source["core.candidate_yield"]},
		"inn.memo_hit_ratio":         "hits over lookups of the rank memo during one Binary pass over each probe series' candidates",
		"runtime.gc_cpu_frac":        "GC CPU seconds over all CPU seconds of the process during the untraced blocks",
		"trace.overhead_frac":        "p50 of the traced blocks over p50 of the untraced blocks, minus 1",
		"server.self_ms":             "median HTTP time minus median in-process time of the same payloads",
		"stream.push_us":             "pushes that did not trigger an analysis",
		"forest.retrains_per_series": "forest trainings (classify plus one per active-learning round) per detection run",
	}
	metrics, err := withUnits(perLayer, m)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, err
}

// loopMetrics are the per-layer figures the workload's own traced
// blocks measured: pipeline stages from the recorder, and the layer the
// workload exists for.
func loopMetrics(w workload, traced *phase, rs recState, spans []span) map[string]float64 {
	ops := int64(len(traced.lat))
	m := coreMetrics(rs, ops, traced.detections)
	switch w := w.(type) {
	case *streamWorkload:
		hops := float64(ops)
		if traced.pushCount > 0 {
			m["stream.push_us"] = durUs(traced.pushTime) / float64(traced.pushCount)
		}
		m["stream.inn_score_ms_per_hop"] = durMs(rs.total[obs.StageINNScore]) / hops
		m["stream.classify_ms_per_hop"] = durMs(rs.total[obs.StageClassify]) / hops
		self := selfTimes(spans)
		var sub time.Duration
		for _, s := range spans {
			if s.Name == "cabd.StreamDetector.Push" {
				sub += self[s.ID]
			}
		}
		m["stream.substrate_ms_per_hop"] = durMs(sub) / hops
		m["stream.live_bytes_per_stream"] = w.liveBytesPerStream
	case *serveWorkload:
		if n := rs.count[obs.StageHTTPRequest]; n > 0 {
			m["server.http_request_ms"] = durMs(rs.total[obs.StageHTTPRequest]) / float64(n)
		}
		m["server.shed"] = float64(rs.counters[obs.CounterHTTPShed])
	}
	return m
}

// layerChecks are the two sanity checks on the layer split that later
// performance claims rely on: the server's own time is visible beside
// the multivariate detector's (every workload's sweep measures both),
// and on interactive the active-learning rounds and classification make
// up most of a turnaround.
func layerChecks(name string, m map[string]float64, traced *phase) map[string]any {
	out := map[string]any{"server.self_ms": m["server.self_ms"], "multi.detect_ms": m["multi.detect_ms"],
		"server_self_visible": m["server.self_ms"] > 0}
	if name == "interactive" {
		var sum time.Duration
		for _, d := range traced.lat {
			sum += d
		}
		share := (m["core.al_round_ms"] + m["core.classify_ms"]) / (durMs(sum) / float64(len(traced.lat)))
		out["al_round_plus_classify_over_mean_turnaround"] = share
		out["al_round_plus_classify_most"] = share > 0.5
	}
	return out
}
