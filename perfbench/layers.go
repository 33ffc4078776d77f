package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cabd"
	"cabd/httpapi"
	"cabd/internal/core"
	"cabd/internal/inn"
	"cabd/internal/ml/forest"
	"cabd/internal/multi"
	"cabd/internal/obs"
	"cabd/internal/sanitize"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// probeInputs are the inputs the layer sweep calls each layer on, drawn
// from one workload's generated data.
type probeInputs struct {
	uni    []uniSeries
	multi  []multiPayload
	stream []float64
}

// recState is a recorder's cumulative stage times, stage counts and
// counters at one moment.
type recState struct {
	total    [obs.NumStages]time.Duration
	count    [obs.NumStages]int64
	counters [obs.NumCounters]int64
}

func readRec(r *cabd.Recorder) recState {
	var s recState
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		s.total[st] = r.StageTotal(st)
		s.count[st] = r.StageCount(st)
	}
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		s.counters[c] = r.Count(c)
	}
	return s
}

// addDelta adds after-before into s.
func (s *recState) addDelta(after, before recState) {
	for i := range s.total {
		s.total[i] += after.total[i] - before.total[i]
		s.count[i] += after.count[i] - before.count[i]
	}
	for i := range s.counters {
		s.counters[i] += after.counters[i] - before.counters[i]
	}
}

// runs is the number of detection runs recorded: every run opens the
// candidate stage once.
func (s recState) runs() int64 { return s.count[obs.StageCandidates] }

// coreMetrics derives the core-layer metrics from recorder deltas over
// ops operations that reported detections detections.
func coreMetrics(s recState, ops int64, detections int) map[string]float64 {
	m := make(map[string]float64)
	if ops == 0 || s.runs() == 0 {
		return m
	}
	for _, st := range stageOrder {
		if s.count[st.stage] > 0 {
			m["core."+st.name+"_ms"] = durMs(s.total[st.stage]) / float64(ops)
		}
	}
	runs := float64(s.runs())
	cands := float64(s.counters[obs.CounterCandidates])
	m["core.candidates"] = cands / runs
	if cands > 0 {
		m["core.candidate_yield"] = float64(detections) / cands
	}
	m["core.degraded_frac"] = float64(s.counters[obs.CounterDegradations]) / runs
	if q := s.counters[obs.CounterOracleQueries]; q > 0 {
		m["core.queries_per_series"] = float64(q) / runs
	}
	m["forest.retrains_per_series"] = float64(s.count[obs.StageClassify]+s.count[obs.StageALRound]) / runs
	return m
}

// truthLabeler answers active-learning queries from ground truth.
type truthLabeler []series.Label

func (l truthLabeler) Label(i int) series.Label { return l[i] }

// sweepReps repeats the cheap layer calls so each figure averages over
// enough calls to be steady.
const sweepReps = 5

// sweep calls each layer's exported entry point on in and returns the
// per-layer metrics it measured. Every call is recorded as a span in tr,
// which must not be nil: self times are read from the spans.
func sweep(in probeInputs, tr *tracer) (map[string]float64, error) {
	m := make(map[string]float64)
	var op int64 = -1 // sweep spans carry negative op ids
	timed := func(name string, f func()) time.Duration {
		id := tr.start(name, 0, op)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.end(id)
		return d
	}

	// sanitize
	var sanT time.Duration
	var sanN int
	for r := 0; r < sweepReps; r++ {
		for _, s := range in.uni {
			sanT += timed("sanitize.Series", func() { _, _, _, _ = sanitize.Series(s.Values, sanitize.Config{}) })
			sanN++
		}
		for _, p := range in.multi {
			sanT += timed("sanitize.Multi", func() { _, _, _, _ = sanitize.Multi(p.Dims, sanitize.Config{}) })
			sanN++
		}
	}
	m["sanitize.us_per_op"] = durUs(sanT) / float64(sanN)

	// core, with the active-learning loop so every stage runs
	rec := cabd.NewRecorder()
	det := core.NewDetector(core.Options{Obs: rec})
	opts := det.Options()
	results := make([]*core.Result, len(in.uni))
	detections := 0
	for i, s := range in.uni {
		ser := &series.Series{Name: "probe", Values: s.Values, Labels: s.Labels}
		timed("core.DetectActive", func() { results[i] = det.DetectActive(ser, truthLabeler(s.Labels)) })
		detections += len(results[i].Anomalies) + len(results[i].ChangePoints)
	}
	for k, v := range coreMetrics(readRec(rec), int64(len(in.uni)), detections) {
		m[k] = v
	}

	// inn, gmm and forest on each series' candidates
	var buildT, queryT, gmmT, trainT, predT time.Duration
	var queries, members, rows int
	var hits, misses int64
	for i, s := range in.uni {
		cands := results[i].Candidates
		zs := series.New("probe", stats.Standardize(s.Values))
		var comp *inn.Computer
		for r := 0; r < sweepReps; r++ {
			buildT += timed("inn.FromSeries", func() { comp = inn.FromSeries(zs) })
		}
		tlim := comp.RangeLimit(opts.RangeFrac)
		for _, c := range cands {
			var nb []int
			queryT += timed("inn.Computer.Binary", func() { nb = comp.Binary(c.Index, tlim) })
			queries++
			members += len(nb)
		}
		memo := comp.WithRankMemo(0)
		for _, c := range cands {
			memo.Binary(c.Index, tlim)
		}
		h, ms := memo.MemoStats()
		hits, misses = hits+h, misses+ms
		if len(cands) == 0 {
			continue
		}
		gmmT += timed("core.ClusterScores", func() { core.ClusterScores(cands, opts, rand.New(rand.NewSource(1))) })
		mat, y := candidateMatrix(cands)
		cfg := forest.Config{Trees: 100, MinLeaf: 3, NumClasses: core.NumClasses}
		var fr *forest.Forest
		trainT += timed("forest.TrainMatrixWeighted", func() {
			fr = forest.TrainMatrixWeighted(mat, y, nil, cfg, rand.New(rand.NewSource(1)))
		})
		if fr == nil {
			return nil, fmt.Errorf("forest training on %d candidates returned no model", len(cands))
		}
		predT += timed("forest.PredictProbaBatch", func() {
			fr.PredictProbaBatch(mat, nil)
			fr.PredictProbaOOBBatch(mat, nil)
		})
		rows += mat.N
	}
	nUni := float64(len(in.uni))
	m["inn.build_ms"] = durMs(buildT) / (nUni * sweepReps)
	m["gmm.fit_ms"] = durMs(gmmT) / nUni
	m["forest.train_ms"] = durMs(trainT) / nUni
	if queries > 0 {
		m["inn.query_us"] = durUs(queryT) / float64(queries)
		m["inn.neighborhood_len"] = float64(members) / float64(queries)
	}
	if hits+misses > 0 {
		m["inn.memo_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if rows > 0 {
		m["forest.predict_us_per_row"] = durUs(predT) / float64(rows)
	}

	// multi and the N-D INN
	mdet := multi.NewDetector(core.Options{})
	var multiT, ndT time.Duration
	var multiCands, ndQueries int
	for _, p := range in.multi {
		ms := multi.NewSeries("probe", p.Dims)
		var res *core.Result
		var err error
		multiT += timed("multi.Detector.DetectCtx", func() { res, err = mdet.DetectCtx(context.Background(), ms) })
		if err != nil {
			return nil, fmt.Errorf("multi probe: %w", err)
		}
		multiCands += len(res.Candidates)
		nc := inn.NewNComputer(embed(p.Dims))
		tlim := nc.RangeLimit(opts.RangeFrac)
		for _, c := range res.Candidates {
			ndT += timed("inn.NComputer.Binary", func() { nc.Binary(c.Index, tlim) })
			ndQueries++
		}
	}
	m["multi.detect_ms"] = durMs(multiT) / float64(len(in.multi))
	m["multi.candidates"] = float64(multiCands) / float64(len(in.multi))
	if ndQueries > 0 {
		m["inn.nd_query_us"] = durUs(ndT) / float64(ndQueries)
	}

	for k, v := range sweepStream(in.stream, tr) {
		m[k] = v
	}
	sm, err := sweepServer(in, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range sm {
		m[k] = v
	}
	return m, nil
}

// candidateMatrix is the classifier's column-major feature matrix over
// cands (magnitude, correlation, variance, asymmetry) with their current
// classes as labels.
func candidateMatrix(cands []core.Candidate) (forest.Matrix, []int) {
	cols := make([][]float64, 4)
	for j := range cols {
		cols[j] = make([]float64, len(cands))
	}
	y := make([]int, len(cands))
	for i, c := range cands {
		cols[0][i], cols[1][i], cols[2][i], cols[3][i] = c.Magnitude, c.Correlation, c.Variance, c.Asymmetry
		y[i] = int(c.Class)
	}
	return forest.Matrix{Cols: cols, N: len(cands)}, y
}

// embed builds the joint (standardized index, standardized channels)
// points the multivariate detector measures neighborhoods in.
func embed(dims [][]float64) [][]float64 {
	n := len(dims[0])
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	cols := [][]float64{stats.Standardize(idx)}
	for _, d := range dims {
		cols = append(cols, stats.Standardize(d))
	}
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, len(cols))
		for k, c := range cols {
			row[k] = c[i]
		}
		pts[i] = row
	}
	return pts
}

// sweepStream pushes values through a fresh stream detector: push cost,
// per-hop stage times and the stream layer's own share of a hop (the hop
// span's self time once the pipeline stages are taken out), then the
// heap a few such streams hold.
func sweepStream(values []float64, tr *tracer) map[string]float64 {
	rec := cabd.NewRecorder()
	cfg := streamConfig
	cfg.Options = cabd.Options{Obs: rec}
	sd := cabd.NewStream(cfg)
	var pushT time.Duration
	var pushes, hops int64
	var pushIDs []int
	for i, v := range values {
		if !analyzes(i + 1) {
			t0 := time.Now()
			sd.Push(v)
			pushT += time.Since(t0)
			pushes++
			continue
		}
		before := stageTotals(rec)
		id := tr.start("cabd.StreamDetector.Push", 0, -2)
		t0 := time.Now()
		sd.Push(v)
		tr.end(id)
		tr.addSequence(id, -2, t0, stageSpanNames, stagesSince(rec, before))
		pushIDs = append(pushIDs, id)
		hops++
	}
	m := map[string]float64{}
	if pushes > 0 {
		m["stream.push_us"] = durUs(pushT) / float64(pushes)
	}
	if hops > 0 {
		m["stream.inn_score_ms_per_hop"] = durMs(rec.StageTotal(cabd.StageINNScore)) / float64(hops)
		m["stream.classify_ms_per_hop"] = durMs(rec.StageTotal(cabd.StageClassify)) / float64(hops)
		self := selfTimes(tr.spans)
		var sub time.Duration
		for _, id := range pushIDs {
			sub += self[id]
		}
		m["stream.substrate_ms_per_hop"] = durMs(sub) / float64(hops)
	}

	const held = 4
	before := heapAfterGC()
	streams := make([]*cabd.StreamDetector, held)
	for i := range streams {
		streams[i] = cabd.NewStream(streamConfig)
		for _, v := range values[:min(len(values), 2*streamWindow)] {
			streams[i].Push(v)
		}
	}
	after := heapAfterGC()
	runtime.KeepAlive(streams)
	m["stream.live_bytes_per_stream"] = float64(int64(after)-int64(before)) / held
	return m
}

// serverDeadline is the server's default per-request deadline; the
// in-process twin runs under the same one, since a deadline arms the
// detector's degradation pilot.
const serverDeadline = 30 * time.Second

// sweepServer sends each probe payload over HTTP and runs it through the
// in-process facade with the same options and deadline. A request's span
// gets the in-process time as its child, so its self time is what the
// server and wire add. It also times the httpapi encode and decode of
// the same payloads.
func sweepServer(in probeInputs, tr *tracer) (map[string]float64, error) {
	live, err := startServer()
	if err != nil {
		return nil, err
	}
	defer live.stop()
	cl := newClient(live.url)
	type call struct {
		http  func() (*httpapi.DetectResponse, error)
		local func() error
		body  any
	}
	var calls []call
	for _, s := range in.uni[:min(len(in.uni), 4)] {
		values := s.Values
		calls = append(calls, call{
			http: func() (*httpapi.DetectResponse, error) { return cl.Detect(context.Background(), values, nil) },
			local: func() error {
				ctx, cancel := context.WithTimeout(context.Background(), serverDeadline)
				defer cancel()
				_, err := cabd.New(cabd.Options{}).DetectCtx(ctx, values)
				return err
			},
			body: httpapi.DetectRequest{Series: values},
		})
	}
	for _, p := range in.multi[:min(len(in.multi), 2)] {
		dims := p.Dims
		calls = append(calls, call{
			http: func() (*httpapi.DetectResponse, error) { return cl.DetectMulti(context.Background(), dims, nil) },
			local: func() error {
				ctx, cancel := context.WithTimeout(context.Background(), serverDeadline)
				defer cancel()
				_, err := cabd.NewMulti(cabd.Options{}).DetectCtx(ctx, dims)
				return err
			},
			body: httpapi.MultiDetectRequest{Channels: dims},
		})
	}

	var selfSum, encT, decT time.Duration
	var codecN int
	var reqIDs []int
	for i, c := range calls {
		var httpT, localT []float64
		var reply []byte
		for r := 0; r < sweepReps; r++ {
			t0 := time.Now()
			resp, err := c.http()
			httpT = append(httpT, float64(time.Since(t0)))
			if err != nil {
				return nil, fmt.Errorf("server probe request %d: %w", i, err)
			}
			if reply == nil {
				if reply, err = json.Marshal(resp); err != nil {
					return nil, fmt.Errorf("server probe: encode reply: %w", err)
				}
			}
			t0 = time.Now()
			if err := c.local(); err != nil {
				return nil, fmt.Errorf("server probe in-process twin %d: %w", i, err)
			}
			localT = append(localT, float64(time.Since(t0)))
		}
		at := time.Now()
		h, l := time.Duration(median(httpT)), time.Duration(median(localT))
		id := tr.add("server.request", 0, -3-int64(i), at, h)
		tr.add("cabd.Detect (in-process twin)", id, -3-int64(i), at, l)
		reqIDs = append(reqIDs, id)
		for r := 0; r < sweepReps; r++ {
			t0 := time.Now()
			if _, err := json.Marshal(c.body); err != nil {
				return nil, fmt.Errorf("server probe: encode request: %w", err)
			}
			encT += time.Since(t0)
			var out httpapi.DetectResponse
			t0 = time.Now()
			if err := json.Unmarshal(reply, &out); err != nil {
				return nil, fmt.Errorf("server probe: decode reply: %w", err)
			}
			decT += time.Since(t0)
			codecN++
		}
	}
	self := selfTimes(tr.spans)
	for _, id := range reqIDs {
		selfSum += self[id]
	}
	rs := readRec(live.srv.Recorder())
	m := map[string]float64{
		"server.self_ms":    durMs(selfSum) / float64(len(calls)),
		"server.shed":       float64(rs.counters[obs.CounterHTTPShed]),
		"httpapi.encode_us": durUs(encT) / float64(codecN),
		"httpapi.decode_us": durUs(decT) / float64(codecN),
	}
	if n := rs.count[obs.StageHTTPRequest]; n > 0 {
		m["server.http_request_ms"] = durMs(rs.total[obs.StageHTTPRequest]) / float64(n)
	}
	return m, nil
}
