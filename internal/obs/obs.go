// Package obs is the stdlib-only observability layer of the detection
// pipeline: stage spans (sanitize, candidate generation, INN scoring,
// bootstrap, classification, active-learning rounds, assembly), atomic
// counters and gauges, and duration histograms, exported as Prometheus
// text exposition and expvar JSON.
//
// A nil *Recorder is the zero-overhead off switch: every method on a nil
// receiver is a no-op that touches no clock and allocates nothing, so the
// pipeline threads one pointer unconditionally and production code has a
// single code path. Recorders are safe for concurrent use and cheap to
// share across batch workers and streaming detectors.
package obs

import (
	"context"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage span.
type Stage int

// Pipeline stages, in execution order. StageBatchSeries is the
// per-series wall time of a batch run (it wraps the whole per-series
// pipeline, so it is not part of a single run's stage sum).
const (
	StageSanitize Stage = iota
	StageCandidates
	StageINNScore
	StageBootstrap
	StageClassify
	StageALRound
	StageAssemble
	StageBatchSeries
	// StageHTTPRequest is the whole-request wall time of one served HTTP
	// request (internal/server); like StageBatchSeries it wraps entire
	// runs and is not part of a single run's stage sum.
	StageHTTPRequest
	NumStages
)

var stageNames = [NumStages]string{
	"sanitize", "candidates", "inn_score", "bootstrap",
	"classify", "al_round", "assemble", "batch_series", "http_request",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Counter identifies one monotonic counter.
type Counter int

// Pipeline counters.
const (
	// CounterCandidates counts candidate points selected by candidate
	// estimation across runs.
	CounterCandidates Counter = iota
	// CounterOracleQueries counts labels requested from the labeler.
	CounterOracleQueries
	// CounterDegradations counts FixedKNN downgrades (see DegradeReason
	// labels in the exposition).
	CounterDegradations
	// CounterPanicsContained counts pipeline panics recovered by the
	// facade or a batch worker instead of crashing the process.
	CounterPanicsContained
	// CounterBadStreamValues counts NaN/Inf/out-of-range observations
	// intercepted by StreamDetector.Push.
	CounterBadStreamValues
	// CounterBatchSeries counts series processed by batch entry points;
	// CounterBatchFailures counts the ones that returned an error.
	CounterBatchSeries
	CounterBatchFailures
	// CounterHTTPRequests counts HTTP requests served by internal/server;
	// CounterHTTPShed counts the ones answered 429, once each: the
	// worker-pool queue was full, or a session or stream cap was reached.
	CounterHTTPRequests
	CounterHTTPShed
	// CounterIdleEvictions counts streaming detectors and labeling
	// sessions reclaimed by the server's idle janitor.
	CounterIdleEvictions
	// CounterIngestAccepted / CounterIngestDuplicates count forwarded
	// detections accepted by the ingest endpoint and at-least-once
	// redeliveries deduplicated by idempotency key.
	CounterIngestAccepted
	CounterIngestDuplicates
	// CounterAgentForwarded / CounterAgentSpilled / CounterAgentReplayed
	// / CounterAgentSpillDropped / CounterAgentRetries instrument the
	// collector agent's forwarder: detections delivered upstream,
	// detections parked in the disk spill buffer on disconnect, spilled
	// detections replayed after reconnect, spilled detections dropped at
	// the buffer's byte cap, and send attempts that failed and backed
	// off.
	CounterAgentForwarded
	CounterAgentSpilled
	CounterAgentReplayed
	CounterAgentSpillDropped
	CounterAgentRetries
	// CounterSessionLabels counts labels posted into interactive
	// server-side labeling sessions.
	CounterSessionLabels
	// CounterStreamHopTimeouts counts streaming analyses abandoned
	// because the per-hop deadline expired before the detector finished
	// (the degraded-but-completed analyses count under
	// CounterDegradations instead).
	CounterStreamHopTimeouts
	NumCounters
)

var counterNames = [NumCounters]string{
	"candidates_total", "oracle_queries_total", "degradations_total",
	"panics_contained_total", "bad_stream_values_total",
	"batch_series_total", "batch_failures_total",
	"http_requests_total", "http_shed_total",
	"idle_evictions_total",
	"ingest_accepted_total", "ingest_duplicates_total",
	"agent_forwarded_total", "agent_spilled_total", "agent_replayed_total",
	"agent_spill_dropped_total", "agent_retries_total",
	"session_labels_total",
	"stream_hop_timeouts_total",
}

// String implements fmt.Stringer.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// Gauge identifies one instantaneous value.
type Gauge int

// Pipeline gauges.
const (
	// GaugeBatchInFlight is the number of series currently being
	// detected by batch workers.
	GaugeBatchInFlight Gauge = iota
	// GaugeStreamWindow is the current fill of the streaming analysis
	// window.
	GaugeStreamWindow
	// GaugeQueueDepth is the number of callers waiting for a serving
	// worker-pool slot: detects, stream pushes and closes, and session
	// rounds.
	GaugeQueueDepth
	// GaugeSessionsActive / GaugeStreamsActive count live labeling
	// sessions and streaming detectors held by the server.
	GaugeSessionsActive
	GaugeStreamsActive
	NumGauges
)

var gaugeNames = [NumGauges]string{
	"batch_in_flight", "stream_window",
	"queue_depth", "sessions_active", "streams_active",
}

// String implements fmt.Stringer.
func (g Gauge) String() string {
	if g < 0 || g >= NumGauges {
		return "unknown"
	}
	return gaugeNames[g]
}

// bucketBoundsNS are the histogram upper bounds in nanoseconds
// (10µs .. 10s, decade steps), plus an implicit +Inf bucket.
var bucketBoundsNS = [...]int64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// numBuckets includes the +Inf overflow bucket.
const numBuckets = len(bucketBoundsNS) + 1

// stageStats is one stage's atomic histogram: observation count, summed
// and maximum duration, and cumulative-style bucket counts.
type stageStats struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func (st *stageStats) observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	st.count.Add(1)
	st.sumNS.Add(ns)
	for {
		cur := st.maxNS.Load()
		if ns <= cur || st.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	b := numBuckets - 1
	for i, bound := range bucketBoundsNS {
		if ns <= bound {
			b = i
			break
		}
	}
	st.buckets[b].Add(1)
}

// Recorder aggregates pipeline metrics. All methods are safe on a nil
// receiver (no-ops) and for concurrent use on a non-nil one.
type Recorder struct {
	clock    Clock
	counters [NumCounters]atomic.Int64
	gauges   [NumGauges]atomic.Int64
	stages   [NumStages]stageStats

	mu      sync.Mutex
	reasons map[string]int64 // degradation reason -> count
}

// New returns a Recorder on the wall clock.
func New() *Recorder { return NewWithClock(Wall) }

// NewWithClock returns a Recorder measuring spans with c (tests inject a
// FakeClock to assert exact timings).
func NewWithClock(c Clock) *Recorder {
	if c == nil {
		c = Wall
	}
	return &Recorder{clock: c, reasons: map[string]int64{}}
}

// Clock returns the recorder's span clock (Wall for a nil recorder).
func (r *Recorder) Clock() Clock {
	if r == nil {
		return Wall
	}
	return r.clock
}

// Add increments counter c by delta.
func (r *Recorder) Add(c Counter, delta int64) {
	if r == nil || c < 0 || c >= NumCounters {
		return
	}
	r.counters[c].Add(delta)
}

// Count returns the current value of counter c (0 on a nil recorder).
func (r *Recorder) Count(c Counter) int64 {
	if r == nil || c < 0 || c >= NumCounters {
		return 0
	}
	return r.counters[c].Load()
}

// AddGauge moves gauge g by delta (use +1/-1 for in-flight tracking).
func (r *Recorder) AddGauge(g Gauge, delta int64) {
	if r == nil || g < 0 || g >= NumGauges {
		return
	}
	r.gauges[g].Add(delta)
}

// SetGauge sets gauge g to v.
func (r *Recorder) SetGauge(g Gauge, v int64) {
	if r == nil || g < 0 || g >= NumGauges {
		return
	}
	r.gauges[g].Store(v)
}

// GaugeValue returns the current value of gauge g.
func (r *Recorder) GaugeValue(g Gauge) int64 {
	if r == nil || g < 0 || g >= NumGauges {
		return 0
	}
	return r.gauges[g].Load()
}

// Degraded records one FixedKNN downgrade with its reason label.
func (r *Recorder) Degraded(reason string) {
	if r == nil {
		return
	}
	r.counters[CounterDegradations].Add(1)
	r.mu.Lock()
	r.reasons[reason]++
	r.mu.Unlock()
}

// DegradeReasons returns a copy of the per-reason downgrade counts.
func (r *Recorder) DegradeReasons() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.reasons) == 0 {
		return nil
	}
	out := make(map[string]int64, len(r.reasons))
	for k, v := range r.reasons {
		out[k] = v
	}
	return out
}

// Observe records one duration into stage s's histogram.
func (r *Recorder) Observe(s Stage, d time.Duration) {
	if r == nil || s < 0 || s >= NumStages {
		return
	}
	r.stages[s].observe(d)
}

// StageCount returns the number of observations recorded for stage s.
func (r *Recorder) StageCount(s Stage) int64 {
	if r == nil || s < 0 || s >= NumStages {
		return 0
	}
	return r.stages[s].count.Load()
}

// StageTotal returns the summed duration recorded for stage s.
func (r *Recorder) StageTotal(s Stage) time.Duration {
	if r == nil || s < 0 || s >= NumStages {
		return 0
	}
	return time.Duration(r.stages[s].sumNS.Load())
}

// Span is one in-flight stage measurement on the shared recorder.
type Span struct {
	r     *Recorder
	stage Stage
	start time.Time
}

// StartStage opens a span for stage s; End records it. On a nil recorder
// the span is inert and End is free.
func (r *Recorder) StartStage(s Stage) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, stage: s, start: r.clock.Now()}
}

// End closes the span and returns its duration (0 for an inert span).
func (sp Span) End() time.Duration {
	if sp.r == nil {
		return 0
	}
	d := sp.r.clock.Now().Sub(sp.start)
	sp.r.Observe(sp.stage, d)
	return d
}

// StageTimings is one run's per-stage wall time, attached to detection
// results when a recorder is installed.
type StageTimings [NumStages]time.Duration

// Get returns the recorded duration of stage s.
func (st StageTimings) Get(s Stage) time.Duration {
	if s < 0 || s >= NumStages {
		return 0
	}
	return st[s]
}

// Total returns the summed duration of the run's own stages
// (StageBatchSeries and StageHTTPRequest wrap whole runs and are
// excluded).
func (st StageTimings) Total() time.Duration {
	var t time.Duration
	for s, d := range st {
		if Stage(s) == StageBatchSeries || Stage(s) == StageHTTPRequest {
			continue
		}
		t += d
	}
	return t
}

// Merge adds other's durations stage by stage.
func (st *StageTimings) Merge(other StageTimings) {
	for s, d := range other {
		st[s] += d
	}
}

// Seconds returns the non-zero stages as a name -> seconds map (nil when
// nothing was recorded).
func (st StageTimings) Seconds() map[string]float64 {
	var out map[string]float64
	for s, d := range st {
		if d <= 0 {
			continue
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[Stage(s).String()] = d.Seconds()
	}
	return out
}

// Trace accumulates one run's stage timings locally and forwards each
// span to the shared recorder. A nil *Trace (from a nil recorder) is the
// no-op fast path. Spans of one trace must not overlap across goroutines
// (the pipeline opens them sequentially); the underlying recorder is
// concurrency-safe.
type Trace struct {
	rec     *Recorder
	timings StageTimings
}

// NewTrace returns a run-scoped trace, or nil on a nil recorder.
func (r *Recorder) NewTrace() *Trace {
	if r == nil {
		return nil
	}
	return &Trace{rec: r}
}

// TraceSpan is one in-flight stage measurement on a trace.
type TraceSpan struct {
	t     *Trace
	stage Stage
	start time.Time
}

// Start opens a span for stage s; End records it into both the trace's
// timings and the shared recorder.
func (t *Trace) Start(s Stage) TraceSpan {
	if t == nil {
		return TraceSpan{}
	}
	return TraceSpan{t: t, stage: s, start: t.rec.clock.Now()}
}

// End closes the span and returns its duration.
func (sp TraceSpan) End() time.Duration {
	if sp.t == nil {
		return 0
	}
	d := sp.t.rec.clock.Now().Sub(sp.start)
	if d < 0 {
		d = 0
	}
	if sp.stage >= 0 && sp.stage < NumStages {
		sp.t.timings[sp.stage] += d
	}
	sp.t.rec.Observe(sp.stage, d)
	return d
}

// Do runs f as stage s: a span wraps it and the goroutine carries a
// cabd_stage pprof label for the duration (inherited by any worker
// goroutines f spawns), so CPU profiles break down by pipeline stage. On
// a nil trace f runs directly with no labeling and no clock reads.
func (t *Trace) Do(s Stage, f func()) {
	if t == nil {
		f()
		return
	}
	sp := t.Start(s)
	pprof.Do(context.Background(), pprof.Labels("cabd_stage", s.String()),
		func(context.Context) { f() })
	sp.End()
}

// Timings returns the trace's accumulated per-stage durations.
func (t *Trace) Timings() StageTimings {
	if t == nil {
		return StageTimings{}
	}
	return t.timings
}

// Add forwards to the underlying recorder (nil-safe).
func (t *Trace) Add(c Counter, delta int64) {
	if t == nil {
		return
	}
	t.rec.Add(c, delta)
}
