package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"cabd"
)

// workload is one named traffic mix. Its inputs come from the seed given
// to setup; everything after setup is measured or checked.
type workload interface {
	// setup generates the inputs, starts what the ops talk to and warms
	// it up. With traced set it also prepares the instrumented twin the
	// traced blocks run on.
	setup(seed int64, traced bool) error
	// fingerprint hashes the generated inputs.
	fingerprint() string
	// measure runs ops for d. A traced block runs on the instrumented
	// twin and records spans into tr.
	measure(d time.Duration, tr *tracer) *phase
	// recorder is the metrics recorder the traced blocks report into.
	recorder() *cabd.Recorder
	// finish completes the first pass over the inputs outside the timed
	// phase, replays a sample of ops and returns the pooled F1 over the
	// first pass. Check failures are added to p.
	finish(p *phase) float64
	// liveHeapMB is the live heap after a forced GC, in MB: the state
	// the workload holds at the end of the run.
	liveHeapMB() float64
	// probes returns inputs for the layer sweep drawn from this
	// workload's own generated data.
	probes() probeInputs
	// close releases servers and goroutines.
	close()
}

// phase is what one measured stretch of ops produced.
type phase struct {
	lat        []time.Duration // one per op
	class      []int           // per op, for workloads mixing op kinds
	lags       []time.Duration // generator lateness before each op
	points     int64           // input points completed
	wall       time.Duration
	attempted  int
	failed     int
	errors     []string // the first few failure messages
	detections int      // detections reported, for candidate yield
	runs       int      // detector runs (series, hops or requests)

	// Stream only: time and count of the pushes that did not analyze.
	pushTime  time.Duration
	pushCount int64
}

// latency summarizes the op latencies. When the phase mixes op kinds
// whose latencies form separate modes, a median over all of them would
// sit in the gap between the modes and jump between runs; each kind is
// summarized alone and the figures are averaged (each kind is an equal
// share of the ops).
func (p *phase) latency() (latencySummary, []latencySummary) {
	if len(p.class) == 0 {
		return summarize(p.lat), nil
	}
	var byClass [][]time.Duration
	for i, c := range p.class {
		for len(byClass) <= c {
			byClass = append(byClass, nil)
		}
		byClass[c] = append(byClass[c], p.lat[i])
	}
	out := latencySummary{N: len(p.lat), TailPct: 100, TailBeyond: len(p.lat)}
	parts := make([]latencySummary, len(byClass))
	for c, lat := range byClass {
		s := summarize(lat)
		parts[c] = s
		out.P50Ms += s.P50Ms / float64(len(byClass))
		out.TailMs += s.TailMs / float64(len(byClass))
		out.TailPct = math.Min(out.TailPct, s.TailPct)
		out.TailBeyond = min(out.TailBeyond, s.TailBeyond)
	}
	return out, parts
}

// fail records one failed op.
func (p *phase) fail(err error) {
	p.failed++
	if len(p.errors) < 5 {
		p.errors = append(p.errors, err.Error())
	}
}

// merge adds o into p.
func (p *phase) merge(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.class = append(p.class, o.class...)
	p.lags = append(p.lags, o.lags...)
	p.points += o.points
	p.wall += o.wall
	p.attempted += o.attempted
	p.failed += o.failed
	for _, e := range o.errors {
		if len(p.errors) < 5 {
			p.errors = append(p.errors, e)
		}
	}
	p.detections += o.detections
	p.runs += o.runs
	p.pushTime += o.pushTime
	p.pushCount += o.pushCount
}

// stageOrder lists the pipeline stages a detection run is made of, in
// execution order, with the names spans and metrics use.
var stageOrder = []struct {
	stage cabd.Stage
	name  string
}{
	{cabd.StageSanitize, "sanitize"},
	{cabd.StageCandidates, "candidates"},
	{cabd.StageINNScore, "inn_score"},
	{cabd.StageBootstrap, "bootstrap"},
	{cabd.StageClassify, "classify"},
	{cabd.StageALRound, "al_round"},
	{cabd.StageAssemble, "assemble"},
}

// stageSpanNames are the span names of stageOrder.
var stageSpanNames = func() []string {
	out := make([]string, len(stageOrder))
	for i, s := range stageOrder {
		out[i] = "core." + s.name
	}
	return out
}()

// stageDurations lists st in stageOrder.
func stageDurations(st cabd.StageTimings) []time.Duration {
	out := make([]time.Duration, len(stageOrder))
	for i, s := range stageOrder {
		out[i] = st.Get(s.stage)
	}
	return out
}

// heapAfterGC returns the live heap in bytes after two forced
// collections (the second also empties the sync.Pools the first
// demoted).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mb is one megabyte.
const mb = 1e6

// newWorkload returns the workload called name.
func newWorkload(name string) (workload, error) {
	switch name {
	case "batch":
		return &batchWorkload{}, nil
	case "interactive":
		return &interactiveWorkload{}, nil
	case "stream":
		return &streamWorkload{}, nil
	case "serve":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want batch, interactive, stream or serve)", name)
}

// firstPass holds each input's first verdict, against which every later
// op on the same input is compared.
type firstPass struct {
	verdicts []*verdict
}

func newFirstPass(n int) *firstPass { return &firstPass{verdicts: make([]*verdict, n)} }

// record stores v as input i's first verdict, or compares it with the
// stored one.
func (f *firstPass) record(i int, v verdict) error {
	if f.verdicts[i] == nil {
		f.verdicts[i] = &v
		return nil
	}
	if !f.verdicts[i].equal(v) {
		return fmt.Errorf("replay of input %d gave different detections", i)
	}
	return nil
}
