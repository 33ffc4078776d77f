package cabd

import "cabd/internal/obs"

// Recorder aggregates pipeline metrics: per-stage duration histograms,
// monotonic counters (candidates, oracle queries, degradations, contained
// panics, batch and stream activity) and gauges.
// Install one on Options.Obs to instrument detection; a single recorder
// may be shared by any number of detectors, batch workers and streaming
// pushes. A nil recorder — the default — disables instrumentation with
// zero overhead: no clock reads, no allocations.
//
// Export the accumulated state with Recorder.WritePrometheus (text
// exposition), Recorder.Snapshot (JSON-friendly struct) or
// obs.PublishExpvar via the internal package.
type Recorder = obs.Recorder

// NewRecorder returns a Recorder on the wall clock.
func NewRecorder() *Recorder { return obs.New() }

// Clock abstracts time for span measurement; tests inject a fake clock
// to assert exact stage timings.
type Clock = obs.Clock

// NewRecorderWithClock returns a Recorder measuring spans with c.
func NewRecorderWithClock(c Clock) *Recorder { return obs.NewWithClock(c) }

// StageTimings is one run's per-stage wall time, attached to Result when
// Options.Obs carries a recorder.
type StageTimings = obs.StageTimings

// MetricsSnapshot is a point-in-time copy of a Recorder's state, suitable
// for JSON encoding.
type MetricsSnapshot = obs.Snapshot

// Pipeline stages, re-exported for reading StageTimings.
type Stage = obs.Stage

// Stage identifiers for StageTimings.Get.
const (
	StageSanitize    = obs.StageSanitize
	StageCandidates  = obs.StageCandidates
	StageINNScore    = obs.StageINNScore
	StageBootstrap   = obs.StageBootstrap
	StageClassify    = obs.StageClassify
	StageALRound     = obs.StageALRound
	StageAssemble    = obs.StageAssemble
	StageBatchSeries = obs.StageBatchSeries
)
