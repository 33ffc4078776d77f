package main

import (
	"time"

	"cabd"
	"cabd/internal/eval"
)

// Batch workload sizes: a pool of univariate series cycled by one
// closed-loop caller. Each series recurs several times per run, so every
// recurrence is also a replay check.
const (
	batchPool = 96
	batchN    = 2000
	batchWarm = 4
)

// batchWorkload runs Detector.Detect on one series per op.
type batchWorkload struct {
	seed  int64
	pool  []uniSeries
	fp    string
	plain *cabd.Detector
	inst  *cabd.Detector // plain's twin with a recorder, for traced blocks
	rec   *cabd.Recorder
	first *firstPass
	next  int64
}

func (w *batchWorkload) setup(seed int64, _ bool) error {
	w.seed = seed
	w.pool = genUniPool(seed, batchPool, batchN)
	f := newFingerprinter("batch")
	f.uni(w.pool)
	w.fp = f.sum()
	w.plain = cabd.New(cabd.Options{})
	w.rec = cabd.NewRecorder()
	w.inst = cabd.New(cabd.Options{Obs: w.rec})
	w.first = newFirstPass(len(w.pool))
	warm := &phase{}
	for k := 0; k < batchWarm; k++ {
		w.op(int64(k), w.plain, nil, warm)
	}
	w.next = batchWarm
	return nil
}

func (w *batchWorkload) fingerprint() string      { return w.fp }
func (w *batchWorkload) recorder() *cabd.Recorder { return w.rec }
func (w *batchWorkload) close()                   {}

func (w *batchWorkload) measure(d time.Duration, tr *tracer) *phase {
	p := &phase{}
	det := w.plain
	if tr != nil {
		det = w.inst
	}
	_, p.lags, p.wall = closedLoop(wallClock{}, d, func(int64) time.Time {
		k := w.next
		w.next++
		return w.op(k, det, tr, p)
	})
	return p
}

// op detects on series k mod pool size and checks the result. It
// returns when the answer was ready.
func (w *batchWorkload) op(k int64, det *cabd.Detector, tr *tracer, p *phase) time.Time {
	i := int(k % int64(len(w.pool)))
	s := &w.pool[i]
	root := tr.start("op", 0, k)
	call := tr.start("cabd.Detect", root, k)
	t0 := time.Now()
	res := det.Detect(s.Values)
	t1 := time.Now()
	tr.end(call)
	tr.addSequence(call, k, t0, stageSpanNames, stageDurations(res.Stages))
	chk := tr.start("check", root, k)
	p.lat = append(p.lat, t1.Sub(t0))
	p.points += int64(len(s.Values))
	p.attempted++
	p.runs++
	v := fromFacade(res)
	p.detections += v.count()
	if err := v.check(len(s.Values)); err != nil {
		p.fail(err)
	} else if err := w.first.record(i, v); err != nil {
		p.fail(err)
	}
	tr.end(chk)
	tr.end(root)
	return t1
}

func (w *batchWorkload) finish(p *phase) float64 {
	for i, v := range w.first.verdicts {
		if v == nil {
			w.op(int64(i), w.plain, nil, p)
		}
	}
	// Replay a sample explicitly, in case the run was too short to cycle.
	for i := 0; i < 2; i++ {
		w.op(int64(i), w.plain, nil, p)
	}
	var acc prf
	for i, v := range w.first.verdicts {
		m := eval.Match(v.indices(), w.pool[i].Truth, uniTol)
		acc.add(m.TP, m.FP, m.FN)
	}
	return acc.f1()
}

func (w *batchWorkload) liveHeapMB() float64 { return float64(heapAfterGC()) / mb }

func (w *batchWorkload) probes() probeInputs {
	return probeInputs{uni: w.pool[:8], multi: genMultiPool(w.seed, 4), stream: genStreamProbe(w.seed)}
}
