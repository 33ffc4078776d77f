// Package stream wraps the CABD detector for online use — the deployment
// mode of the paper's production prototype (IoT gateways see readings one
// at a time, not as files). Observations are pushed one by one; every hop
// the detector re-analyzes a sliding window and emits the detections that
// have left the window's trailing uncertainty zone, with global indices
// and cross-window deduplication.
//
// Every hop runs the batch pipeline (core.Detector.DetectCtx) over the
// window as it stands. Nothing derived from the window outlives a hop,
// so the window, its position and the counters are the whole state, and
// a checkpoint (State, Resume) restores a stream exactly.
package stream

import (
	"context"
	"sort"
	"time"

	"cabd/internal/core"
	"cabd/internal/obs"
	"cabd/internal/sanitize"
	"cabd/internal/series"
)

// Config parameterizes the streaming wrapper.
type Config struct {
	// Window is the analysis window length (default 1024). Larger
	// windows give the INN more context; smaller windows bound latency
	// and memory.
	Window int
	// Hop is how many new observations trigger a re-analysis (default
	// Window/8, floored at 1). Detection latency is at most Hop + Margin
	// points.
	Hop int
	// Margin is the number of trailing points considered unstable (a
	// fresh level shift looks like an anomaly until its segment grows;
	// default 16, clamped strictly below Window/2 so detections can
	// always leave the unstable zone).
	Margin int
	// BadValue selects how Push treats NaN, ±Inf and out-of-range
	// observations: sanitize.Interpolate (default) imputes the last good
	// value so the window is never corrupted; sanitize.Drop (and Reject,
	// which cannot signal an error from Push) discards the observation
	// entirely — indices then refer to the accepted substream. Bad()
	// reports how many observations were intercepted either way.
	BadValue sanitize.Policy
	// HopTimeout bounds one analysis. Zero means no bound. The deadline
	// arms the detector's graceful degradation (FixedKNN scoring when
	// headroom runs short — the emitted detections carry Degraded); an
	// analysis that still overruns is abandoned for this hop, counted
	// under obs.CounterStreamHopTimeouts, and retried at the next hop
	// over the slid window. Deadlines are measured on Options.Obs's
	// injected clock.
	HopTimeout time.Duration
	// Detector options.
	Options core.Options
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.Hop <= 0 {
		c.Hop = c.Window / 8
		if c.Hop < 1 {
			// Window < 8 used to leave Hop = 0: Push then triggered an
			// analysis on every observation once the window was half
			// full, and a configured Hop of 0 meant "analyze never
			// advances sinceRun past the threshold" — analyze every push.
			// Floor at one observation per hop.
			c.Hop = 1
		}
	}
	if c.Margin <= 0 {
		c.Margin = 16
	}
	if c.Margin >= c.Window/2 {
		// Strictly below half the window — assigning Window/2 itself
		// (the old behavior) kept the value the guard was rejecting, and
		// with Hop ≥ len(buf)-cut every detection could sit in the
		// unstable zone forever on tiny windows.
		c.Margin = c.Window/2 - 1
		if c.Margin < 0 {
			c.Margin = 0
		}
	}
}

// Detection is one streamed detection with its global index.
type Detection struct {
	Index      int // global position in the stream
	Class      core.Class
	Subtype    series.Label
	Confidence float64
	// Degraded is set when the analysis that confirmed this detection
	// ran under graceful degradation (FixedKNN fallback on candidate
	// floods or deadline pressure) — the detection is real but its
	// scores came from the cheaper neighborhood strategy.
	Degraded bool
}

// Detector is the streaming wrapper. Not safe for concurrent use.
type Detector struct {
	cfg      Config
	det      *core.Detector
	buf      []float64 // sliding window
	start    int       // global index of buf[0]
	total    int       // observations seen
	sinceRun int       // observations since the last analysis
	emitted  map[int]bool
	clk      obs.Clock

	lastGood float64 // most recent finite observation
	hasGood  bool
	bad      int // bad observations intercepted
}

// New returns a streaming detector.
func New(cfg Config) *Detector {
	cfg.defaults()
	d := &Detector{
		cfg:     cfg,
		det:     core.NewDetector(cfg.Options),
		emitted: map[int]bool{},
	}
	d.clk = cfg.Options.Obs.Clock()
	return d
}

// State is the serializable snapshot of a streaming detector — the
// agent checkpoint format. It captures everything Push accumulates, so
// a Resume'd detector continues the stream bit-identically: same window
// contents, same global indices, same emitted-detection dedup set.
type State struct {
	// Window is the sliding-buffer contents; Start is the global index
	// of Window[0].
	Window []float64 `json:"window,omitempty"`
	Start  int       `json:"start"`
	// Total / SinceRun / Bad mirror the stream's lifetime counters.
	Total    int `json:"total"`
	SinceRun int `json:"since_run"`
	Bad      int `json:"bad"`
	// Emitted lists the already-reported global detection indices still
	// inside the window, sorted for a canonical wire form.
	Emitted []int `json:"emitted,omitempty"`
	// LastGood / HasGood restore the bad-value imputation state.
	LastGood float64 `json:"last_good"`
	HasGood  bool    `json:"has_good"`
}

// State snapshots the detector for checkpointing.
func (d *Detector) State() State {
	st := State{
		Window:   append([]float64(nil), d.buf...),
		Start:    d.start,
		Total:    d.total,
		SinceRun: d.sinceRun,
		Bad:      d.bad,
		LastGood: d.lastGood,
		HasGood:  d.hasGood,
	}
	for idx := range d.emitted {
		// Eviction of stale indices is deferred to hop boundaries, so
		// filter here: the canonical wire form carries only indices
		// still inside the window.
		if idx >= d.start {
			st.Emitted = append(st.Emitted, idx)
		}
	}
	sort.Ints(st.Emitted)
	return st
}

// Resume rebuilds a detector from a checkpointed State under cfg. The
// configuration is not part of the state — a resumed agent applies its
// (possibly reloaded) config to the restored stream position.
//
// A restored window is input like any other, so each value must pass the
// test Push applies. A value that fails is replaced by the nearest good
// value before it, or after it when it leads the window, and is counted
// in Bad; positions, Start and Total stay as they were. A window with no
// good value is dropped, and Start moves past it. A LastGood that fails
// the test is forgotten.
//
// A corrupt checkpoint must not silence the stream either. SinceRun is
// held to [0, max(Hop, Window)]: every count at or above Hop fires the
// next analyzing Push alike, so the upper bound moves no hop, while a
// negative count, or one that overflows at the next Push, would never
// reach Hop. Emitted indices outside the restored window are dropped;
// one ahead of it would suppress that future detection.
func Resume(cfg Config, st State) *Detector {
	d := New(cfg)
	d.buf = append(d.buf, st.Window...)
	d.start = st.Start
	d.total = st.Total
	d.sinceRun = min(max(st.SinceRun, 0), max(d.cfg.Hop, d.cfg.Window))
	d.bad = st.Bad
	if st.HasGood && sanitize.Finite(st.LastGood, sanitize.DefaultMaxAbs) {
		d.lastGood, d.hasGood = st.LastGood, true
	}
	if bad := repairWindow(d.buf); bad > 0 {
		d.bad += bad
		if bad == len(d.buf) {
			d.start += len(d.buf)
			d.buf = d.buf[:0]
		}
	}
	for _, idx := range st.Emitted {
		// 0 <= idx-start < len(buf), exact even where idx-start overflows.
		if uint(idx-d.start) < uint(len(d.buf)) {
			d.emitted[idx] = true
		}
	}
	return d
}

// repairWindow replaces every value of w that fails Push's test with the
// nearest good value before it, or with the first good value when none
// precedes it, and returns how many values failed. When all of them fail
// w is left as it is.
func repairWindow(w []float64) (bad int) {
	seen := false
	var good float64
	for i, v := range w {
		switch {
		case sanitize.Finite(v, sanitize.DefaultMaxAbs):
			if !seen {
				for j := range w[:i] {
					w[j] = v
				}
				seen = true
			}
			good = v
		case seen:
			w[i] = good
			bad++
		default:
			bad++
		}
	}
	return bad
}

// Push appends one observation and returns any newly confirmed
// detections (often none; at most once per hop). A NaN, ±Inf or
// out-of-range observation never reaches the window: it is imputed with
// the last good value (default) or discarded, per Config.BadValue.
func (d *Detector) Push(v float64) []Detection {
	if !sanitize.Finite(v, sanitize.DefaultMaxAbs) {
		d.bad++
		d.cfg.Options.Obs.Add(obs.CounterBadStreamValues, 1)
		if d.cfg.BadValue != sanitize.Interpolate || !d.hasGood {
			// Drop/Reject policy, or no good value yet to impute with:
			// the observation is discarded entirely.
			return nil
		}
		v = d.lastGood
	} else {
		d.lastGood, d.hasGood = v, true
	}
	d.buf = append(d.buf, v)
	if len(d.buf) > d.cfg.Window {
		drop := len(d.buf) - d.cfg.Window
		d.buf = d.buf[drop:]
		d.start += drop
	}
	d.total++
	d.sinceRun++
	d.cfg.Options.Obs.SetGauge(obs.GaugeStreamWindow, int64(len(d.buf)))
	if d.sinceRun < d.cfg.Hop || len(d.buf) < d.cfg.Window/2 {
		return nil
	}
	d.sinceRun = 0
	return d.analyze()
}

// Flush analyzes the current window one final time with no trailing
// margin (end of stream: the margin has nothing more to wait for).
func (d *Detector) Flush() []Detection {
	return d.analyzeWithMargin(0)
}

// Total returns the number of observations accepted into the stream
// (imputed observations count; discarded bad ones do not).
func (d *Detector) Total() int { return d.total }

// Bad returns the number of bad (NaN/Inf/out-of-range) observations
// intercepted by Push, whether imputed or discarded.
func (d *Detector) Bad() int { return d.bad }

func (d *Detector) analyze() []Detection {
	return d.analyzeWithMargin(d.cfg.Margin)
}

func (d *Detector) analyzeWithMargin(margin int) []Detection {
	if len(d.buf) < 8 {
		return nil
	}
	// Forget emitted indices that fell out of the window. Deferred from
	// Push to the analysis boundary: scanning the map per observation
	// made the steady-state Push O(|emitted|) per point; here the scan
	// amortizes over the hop.
	for idx := range d.emitted {
		if idx < d.start {
			delete(d.emitted, idx)
		}
	}
	ctx := context.Background()
	if d.cfg.HopTimeout > 0 {
		// The deadline is computed on the injected clock so tests drive
		// it deterministically; the detector's degradation pilot reads
		// the same clock. A pathological window used to stall Push
		// forever here (plain Detect has no way out); now the analysis
		// degrades, and past the deadline is abandoned until next hop.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d.clk.Now().Add(d.cfg.HopTimeout))
		defer cancel()
	}
	res, err := d.det.DetectCtx(ctx, series.New("stream", d.buf))
	if err != nil {
		d.cfg.Options.Obs.Add(obs.CounterStreamHopTimeouts, 1)
		return nil
	}
	cut := len(d.buf) - margin
	var out []Detection
	report := func(dets []core.Detection) {
		for _, det := range dets {
			if det.Index >= cut {
				continue // still inside the unstable margin
			}
			g := d.start + det.Index
			if d.emitted[g] {
				continue
			}
			d.emitted[g] = true
			out = append(out, Detection{
				Index: g, Class: det.Class,
				Subtype: det.Subtype, Confidence: det.Confidence,
				Degraded: res.Degraded,
			})
		}
	}
	report(res.Anomalies)
	report(res.ChangePoints)
	return out
}
