package cabd

import "cabd/internal/stream"

// StreamConfig parameterizes a streaming detector: the analysis Window
// (default 1024), the Hop of new observations that triggers a
// re-analysis (default Window/8; detection latency is bounded by Hop +
// Margin), the trailing uncertainty Margin (default 16), the BadValue
// policy for NaN, ±Inf and out-of-range observations (SanitizeDrop makes
// indices refer to the accepted substream), the per-hop HopTimeout (zero
// means no bound) and the detector Options.
type StreamConfig = stream.Config

// StreamDetection is one detection emitted by a StreamDetector, carrying
// the observation's global position in the stream.
type StreamDetection struct {
	Index      int
	Subtype    Label
	Confidence float64
	// Degraded is set when the confirming analysis ran under graceful
	// degradation (candidate flood or deadline pressure).
	Degraded bool
}

// StreamDetector runs CABD online: push observations one at a time and
// collect detections as they are confirmed. Not safe for concurrent use.
type StreamDetector struct {
	inner *stream.Detector
}

// NewStream returns a streaming detector.
func NewStream(cfg StreamConfig) *StreamDetector {
	return &StreamDetector{inner: stream.New(cfg)}
}

// StreamState is the serializable snapshot of a StreamDetector: window
// contents, global position, counters and the emitted-detection dedup
// set. It is the unit of agent checkpointing (cmd/cabd-agent) — a
// detector resumed from a state continues the stream bit-identically.
type StreamState = stream.State

// State snapshots the detector for checkpointing. The configuration is
// not part of the state; pass it again to ResumeStream.
func (d *StreamDetector) State() StreamState { return d.inner.State() }

// ResumeStream rebuilds a streaming detector from a checkpointed state
// under cfg.
func ResumeStream(cfg StreamConfig, st StreamState) *StreamDetector {
	return &StreamDetector{inner: stream.Resume(cfg, st)}
}

// Push appends one observation and returns any newly confirmed
// detections (usually none; at most a batch per hop). A NaN, ±Inf or
// out-of-range observation never corrupts the window — it is imputed or
// discarded per StreamConfig.BadValue.
func (d *StreamDetector) Push(v float64) []StreamDetection {
	return convertStream(d.inner.Push(v))
}

// Bad returns the number of bad (NaN/Inf/out-of-range) observations
// intercepted by Push so far.
func (d *StreamDetector) Bad() int { return d.inner.Bad() }

// Flush analyzes the final window with no trailing margin and returns the
// remaining detections. Call once at end of stream.
func (d *StreamDetector) Flush() []StreamDetection {
	return convertStream(d.inner.Flush())
}

// Total returns the number of observations pushed so far.
func (d *StreamDetector) Total() int { return d.inner.Total() }

func convertStream(dets []stream.Detection) []StreamDetection {
	out := make([]StreamDetection, 0, len(dets))
	for _, det := range dets {
		out = append(out, StreamDetection{
			Index:      det.Index,
			Subtype:    Label(det.Subtype),
			Confidence: det.Confidence,
			Degraded:   det.Degraded,
		})
	}
	return out
}
