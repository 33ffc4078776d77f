package main

import (
	"fmt"
	"time"

	"cabd"
	"cabd/internal/eval"
)

// Stream workload: streamCount detectors at the default window, hop and
// margin, fed round-robin by one goroutine. Each stream's series is long
// enough that a run never exhausts it.
const (
	streamCount  = 8
	streamWindow = 1024
	streamHop    = 128
	streamMargin = 16
	streamLen    = streamWindow + 100000
	replayPoints = 4096
)

var streamConfig = cabd.StreamConfig{Window: streamWindow, Hop: streamHop, Margin: streamMargin}

// analyzes reports whether the push that brings a stream to total points
// re-analyzes the window: every hop, once the window is half full.
func analyzes(total int) bool { return total%streamHop == 0 && total >= streamWindow/2 }

// emission is one streamed detection with the stream length at which it
// was emitted.
type emission struct {
	Total int
	Det   cabd.StreamDetection
}

// streamState is one stream: its detector, its input and what it emitted.
type streamState struct {
	det     *cabd.StreamDetector
	data    *uniSeries
	pos     int
	chk     *streamChecker
	emitted []emission
}

func newStreams(data []uniSeries, opts cabd.Options) []*streamState {
	cfg := streamConfig
	cfg.Options = opts
	out := make([]*streamState, len(data))
	for i := range data {
		out[i] = &streamState{det: cabd.NewStream(cfg), data: &data[i],
			chk: newStreamChecker(streamWindow, streamMargin)}
	}
	return out
}

// streamWorkload pushes observations; one op is one analyzing Push (a
// hop).
type streamWorkload struct {
	seed  int64
	data  []uniSeries
	fp    string
	plain []*streamState
	inst  []*streamState // fed only in traced blocks, with a recorder
	rec   *cabd.Recorder
	hops  int64

	liveBytesPerStream float64
}

func (w *streamWorkload) setup(seed int64, traced bool) error {
	w.seed = seed
	w.data = genUniPool(seed+2, streamCount, streamLen)
	f := newFingerprinter("stream")
	f.uni(w.data)
	w.fp = f.sum()
	w.plain = newStreams(w.data, cabd.Options{})
	w.rec = cabd.NewRecorder()
	warm := &phase{}
	for k := 0; k < streamWindow; k++ {
		w.round(w.plain, nil, warm)
	}
	if traced {
		w.inst = newStreams(w.data, cabd.Options{Obs: w.rec})
		for k := 0; k < streamWindow; k++ {
			w.round(w.inst, nil, warm)
		}
	}
	if warm.failed > 0 {
		return fmt.Errorf("stream warm-up: %s", warm.errors[0])
	}
	return nil
}

func (w *streamWorkload) fingerprint() string      { return w.fp }
func (w *streamWorkload) recorder() *cabd.Recorder { return w.rec }
func (w *streamWorkload) close()                   {}

func (w *streamWorkload) measure(d time.Duration, tr *tracer) *phase {
	p := &phase{}
	set := w.plain
	if tr != nil {
		set = w.inst
	}
	_, p.lags, p.wall = closedLoop(wallClock{}, d, func(int64) time.Time {
		return w.round(set, tr, p)
	})
	return p
}

// round pushes the next observation of every stream in set. Analyzing
// pushes are timed one by one; the others are timed in aggregate. It
// returns the zero time once the inputs run out.
func (w *streamWorkload) round(set []*streamState, tr *tracer, p *phase) time.Time {
	seg := time.Now()
	for _, st := range set {
		if st.pos >= len(st.data.Values) {
			return time.Time{}
		}
		v := st.data.Values[st.pos]
		st.pos++
		p.points++
		if !analyzes(st.pos) {
			p.pushCount++
			if dets := st.det.Push(v); len(dets) > 0 {
				p.fail(fmt.Errorf("push %d emitted detections without analyzing", st.pos))
			}
			continue
		}
		k := w.hops
		w.hops++
		root := tr.start("hop", 0, k)
		call := tr.start("cabd.StreamDetector.Push", root, k)
		var before cabd.StageTimings
		if tr != nil {
			before = stageTotals(w.rec)
		}
		h0 := time.Now()
		p.pushTime += h0.Sub(seg)
		dets := st.det.Push(v)
		h1 := time.Now()
		tr.end(call)
		if tr != nil {
			tr.addSequence(call, k, h0, stageSpanNames, stagesSince(w.rec, before))
		}
		chk := tr.start("check", root, k)
		p.lat = append(p.lat, h1.Sub(h0))
		p.attempted++
		p.runs++
		p.detections += len(dets)
		if err := st.chk.observe(st.pos, dets); err != nil {
			p.fail(err)
		}
		for _, d := range dets {
			st.emitted = append(st.emitted, emission{Total: st.pos, Det: d})
		}
		tr.end(chk)
		tr.end(root)
		seg = time.Now()
	}
	end := time.Now()
	p.pushTime += end.Sub(seg)
	return end
}

// stageTotals reads rec's cumulative time per stage.
func stageTotals(rec *cabd.Recorder) cabd.StageTimings {
	var st cabd.StageTimings
	for s := range st {
		st[s] = rec.StageTotal(cabd.Stage(s))
	}
	return st
}

// stagesSince lists, in stageOrder, the time rec recorded per stage
// since its totals were before.
func stagesSince(rec *cabd.Recorder, before cabd.StageTimings) []time.Duration {
	now := stageTotals(rec)
	for s := range now {
		now[s] -= before[s]
	}
	return stageDurations(now)
}

func (w *streamWorkload) finish(p *phase) float64 {
	// Replay the start of stream 0 on a fresh detector: it must emit the
	// same detections at the same points.
	st := w.plain[0]
	n := min(st.pos, replayPoints)
	fresh := cabd.NewStream(streamConfig)
	var got []emission
	for i := 0; i < n; i++ {
		for _, d := range fresh.Push(st.data.Values[i]) {
			got = append(got, emission{Total: i + 1, Det: d})
		}
	}
	var want []emission
	for _, e := range st.emitted {
		if e.Total <= n {
			want = append(want, e)
		}
	}
	p.attempted++
	if !equalEmissions(got, want) {
		p.fail(fmt.Errorf("replay of the first %d points of stream 0 emitted different detections", n))
	}
	// F1 over the part of each stream whose detections are final.
	var acc prf
	for _, st := range w.plain {
		limit := st.pos - streamWindow
		var pred, truth []int
		for _, e := range st.emitted {
			if e.Det.Index < limit {
				pred = append(pred, e.Det.Index)
			}
		}
		for _, t := range st.data.Truth {
			if t < limit {
				truth = append(truth, t)
			}
		}
		m := eval.Match(pred, truth, uniTol)
		acc.add(m.TP, m.FP, m.FN)
	}
	return acc.f1()
}

func equalEmissions(a, b []emission) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// liveHeapMB is the heap the streams hold: the live heap with them
// minus the live heap once they are released.
func (w *streamWorkload) liveHeapMB() float64 {
	with := heapAfterGC()
	count := len(w.plain) + len(w.inst)
	for _, set := range [][]*streamState{w.plain, w.inst} {
		for _, st := range set {
			st.det = nil
		}
	}
	without := heapAfterGC()
	held := float64(int64(with) - int64(without))
	w.liveBytesPerStream = held / float64(count)
	return held / mb
}

func (w *streamWorkload) probes() probeInputs {
	uni := make([]uniSeries, 4)
	for i := range uni {
		uni[i] = window(&w.data[i], streamWindow, streamWindow)
	}
	return probeInputs{uni: uni, multi: genMultiPool(w.seed, 4), stream: w.data[0].Values[:replayPoints]}
}

// window returns the n points of s starting at from, with the truth
// shifted into the slice's coordinates.
func window(s *uniSeries, from, n int) uniSeries {
	out := uniSeries{Values: s.Values[from : from+n], Labels: s.Labels[from : from+n]}
	for _, t := range s.Truth {
		if t >= from && t < from+n {
			out.Truth = append(out.Truth, t-from)
		}
	}
	return out
}
