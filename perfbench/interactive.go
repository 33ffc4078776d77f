package main

import (
	"fmt"
	"time"

	"cabd"
	"cabd/internal/eval"
)

// Interactive workload sizes: a pool of series, each run through the
// active-learning loop with an instant ground-truth labeler.
const (
	interactivePool = 64
	interactiveN    = 2000
	interactiveWarm = 1
)

// interactiveWorkload runs Detector.DetectInteractive; one op is one
// label turnaround: from the labeler returning until the next query or
// the final result.
type interactiveWorkload struct {
	seed    int64
	pool    []uniSeries
	fp      string
	plain   *cabd.Detector
	inst    *cabd.Detector
	rec     *cabd.Recorder
	first   *firstPass
	queries [][]int // first pass: the indices each series asked about
	next    int64
}

func (w *interactiveWorkload) setup(seed int64, _ bool) error {
	w.seed = seed
	w.pool = genUniPool(seed+1, interactivePool, interactiveN)
	f := newFingerprinter("interactive")
	f.uni(w.pool)
	w.fp = f.sum()
	w.plain = cabd.New(cabd.Options{})
	w.rec = cabd.NewRecorder()
	w.inst = cabd.New(cabd.Options{Obs: w.rec})
	w.first = newFirstPass(len(w.pool))
	w.queries = make([][]int, len(w.pool))
	warm := &phase{}
	for k := 0; k < interactiveWarm; k++ {
		w.run(int64(k), w.plain, nil, warm)
	}
	w.next = interactiveWarm
	return nil
}

func (w *interactiveWorkload) fingerprint() string      { return w.fp }
func (w *interactiveWorkload) recorder() *cabd.Recorder { return w.rec }
func (w *interactiveWorkload) close()                   {}

func (w *interactiveWorkload) measure(d time.Duration, tr *tracer) *phase {
	p := &phase{}
	det := w.plain
	if tr != nil {
		det = w.inst
	}
	_, p.lags, p.wall = closedLoop(wallClock{}, d, func(int64) time.Time {
		k := w.next
		w.next++
		return w.run(k, det, tr, p)
	})
	return p
}

// run takes series k mod pool size through the interactive loop,
// recording one latency per turnaround, and checks the result.
func (w *interactiveWorkload) run(k int64, det *cabd.Detector, tr *tracer, p *phase) time.Time {
	i := int(k % int64(len(w.pool)))
	s := &w.pool[i]
	n := len(s.Values)
	root := tr.start("series", 0, k)
	call := tr.start("cabd.DetectInteractive", root, k)
	var last time.Time
	var asked []int
	var badQuery error
	label := func(idx int) cabd.Label {
		now := time.Now()
		if !last.IsZero() {
			p.lat = append(p.lat, now.Sub(last))
			tr.add("turnaround", call, k, last, now.Sub(last))
		}
		asked = append(asked, idx)
		l := cabd.Normal
		if idx >= 0 && idx < n {
			l = s.label(idx)
		} else if badQuery == nil {
			badQuery = fmt.Errorf("series %d: query index %d outside [0,%d)", i, idx, n)
		}
		last = time.Now()
		return l
	}
	t0 := time.Now()
	res := det.DetectInteractive(s.Values, label)
	t1 := time.Now()
	if !last.IsZero() {
		p.lat = append(p.lat, t1.Sub(last))
		tr.add("turnaround", call, k, last, t1.Sub(last))
	}
	tr.end(call)
	tr.addSequence(call, k, t0, stageSpanNames, stageDurations(res.Stages))
	chk := tr.start("check", root, k)
	p.points += int64(n)
	p.attempted++
	p.runs++
	v := fromFacade(res)
	p.detections += v.count()
	switch err := w.check(i, res, v, asked); {
	case badQuery != nil:
		p.fail(badQuery)
	case err != nil:
		p.fail(err)
	}
	tr.end(chk)
	tr.end(root)
	return t1
}

// check validates one interactive result: the detections, the query
// count, and on a replay the identical verdict and query sequence.
func (w *interactiveWorkload) check(i int, res *cabd.Result, v verdict, asked []int) error {
	if err := v.check(len(w.pool[i].Values)); err != nil {
		return err
	}
	if res.Queries != len(asked) {
		return fmt.Errorf("series %d: result reports %d queries, labeler saw %d", i, res.Queries, len(asked))
	}
	if w.queries[i] == nil {
		w.queries[i] = append([]int{}, asked...)
	} else if !equalInts(w.queries[i], asked) {
		return fmt.Errorf("replay of series %d asked a different query sequence", i)
	}
	return w.first.record(i, v)
}

func (w *interactiveWorkload) finish(p *phase) float64 {
	for i, v := range w.first.verdicts {
		if v == nil {
			w.run(int64(i), w.plain, nil, p)
		}
	}
	w.run(0, w.plain, nil, p)
	var acc prf
	for i, v := range w.first.verdicts {
		m := eval.Match(v.indices(), w.pool[i].Truth, uniTol)
		acc.add(m.TP, m.FP, m.FN)
	}
	return acc.f1()
}

func (w *interactiveWorkload) liveHeapMB() float64 { return float64(heapAfterGC()) / mb }

func (w *interactiveWorkload) probes() probeInputs {
	return probeInputs{uni: w.pool[:8], multi: genMultiPool(w.seed, 4), stream: genStreamProbe(w.seed)}
}

func equalInts(a, b []int) bool {
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
