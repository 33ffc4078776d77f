// Package servebench measures the HTTP serving layer end to end. It
// lives beside (not inside) internal/experiments because it imports
// internal/server, which imports the cabd facade — folding it into
// experiments would close an import cycle through the facade's own
// bench_test.go.
package servebench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"cabd/client"
	"cabd/httpapi"
	"cabd/internal/obs"
	"cabd/internal/server"
	"cabd/internal/synth"
)

// clk is the package time source; the serving benchmark reads time only
// through it so the deterministic-clock test harness applies here the
// same way it does in internal/experiments.
var clk obs.Clock = obs.Wall

// fprintf writes best-effort formatted output (bench rendering ignores
// writer errors, matching internal/experiments).
func fprintf(w io.Writer, format string, args ...interface{}) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// ServeConfig parameterizes the serving benchmark. Zero-valued fields
// take defaults.
type ServeConfig struct {
	// Requests is the detect-call count of the throughput leg (default
	// 64), spread over Concurrency client goroutines (default 8).
	Requests    int
	Concurrency int
	// N is the length of the synthetic series each request carries
	// (default 512).
	N int
	// Burst is the concurrent-request count of the saturation leg, fired
	// at a one-worker/one-slot server so most of it must shed (default
	// 16).
	Burst int
	// Confidence is the session leg's termination confidence γ (default
	// 0.8, the library default).
	Confidence float64
}

func (c ServeConfig) defaults() ServeConfig {
	if c.Requests <= 0 {
		c.Requests = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.N <= 0 {
		c.N = 512
	}
	if c.Burst <= 0 {
		c.Burst = 16
	}
	if c.Confidence <= 0 {
		c.Confidence = 0.8
	}
	return c
}

// ServeSaturation is the backpressure leg of the serving benchmark: a
// burst against a deliberately tiny server, reporting how much load was
// shed with 429 + Retry-After.
type ServeSaturation struct {
	Burst int `json:"burst"`
	// Shed counts client-observed 429 replies; ShedCounter is the
	// server's own http_shed_total, which counts every 429 once.
	Shed        int   `json:"shed"`
	ShedCounter int64 `json:"shed_counter"`
	// RetryAfterSeconds is the largest backoff hint observed.
	RetryAfterSeconds int `json:"retry_after_seconds"`
}

// ServeSession is the interactive leg: one auto-labeled session (the
// oracle answers from synthetic ground truth) run to convergence.
type ServeSession struct {
	N       int     `json:"n"`
	Queries int     `json:"queries"`
	Gamma   float64 `json:"gamma"`
	// MinConfidence is the smallest detection confidence in the final
	// result; Converged reports MinConfidence >= Gamma (vacuously true
	// with no detections).
	MinConfidence float64 `json:"min_confidence"`
	Converged     bool    `json:"converged"`
	Seconds       float64 `json:"seconds"`
}

// ServeResult is the machine-readable serving benchmark that
// cmd/cabd-bench emits as BENCH_serve.json.
type ServeResult struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	N           int     `json:"n"`
	Errors      int     `json:"errors"`
	Seconds     float64 `json:"seconds"`
	ReqPerSec   float64 `json:"req_per_sec"`
	// Latency quantiles of the detect round trips, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`

	Saturation ServeSaturation `json:"saturation"`
	Session    ServeSession    `json:"session"`
}

// ServeBench measures the HTTP serving layer end to end over a loopback
// listener: detect-call throughput and latency quantiles, backpressure
// shedding at saturation, and one auto-labeled interactive session run
// to convergence. All timings read the package clock, so the
// deterministic-clock harness applies to this benchmark too.
func ServeBench(cfg ServeConfig) ServeResult {
	cfg = cfg.defaults()
	res := ServeResult{Requests: cfg.Requests, Concurrency: cfg.Concurrency, N: cfg.N}

	// --- throughput leg ---
	srv, _ := server.New(server.Config{JanitorEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	cl := client.New(ts.URL)
	vals := synth.YahooLike(42, cfg.N).Values

	lats := make([]float64, cfg.Requests)
	errs := make([]error, cfg.Requests)
	start := clk.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.Requests; i += cfg.Concurrency {
				t0 := clk.Now()
				_, err := cl.Detect(context.Background(), vals, nil)
				lats[i] = clk.Now().Sub(t0).Seconds() * 1e3
				errs[i] = err
			}
		}(w)
	}
	wg.Wait()
	res.Seconds = clk.Now().Sub(start).Seconds()
	for _, err := range errs {
		if err != nil {
			res.Errors++
		}
	}
	if res.Seconds > 0 {
		res.ReqPerSec = float64(cfg.Requests) / res.Seconds
	}
	sort.Float64s(lats)
	res.P50Ms = quantile(lats, 0.50)
	res.P90Ms = quantile(lats, 0.90)
	res.P99Ms = quantile(lats, 0.99)
	ts.Close()
	srv.Close()

	// --- saturation leg: one worker, one queue slot, Burst callers ---
	tiny, _ := server.New(server.Config{Workers: 1, QueueDepth: 1, JanitorEvery: -1})
	tts := httptest.NewServer(tiny.Handler())
	tcl := client.New(tts.URL)
	sat := ServeSaturation{Burst: cfg.Burst}
	// A longer series per request widens the in-flight window so the
	// burst genuinely overlaps; the gate releases every caller at once.
	satVals := vals
	if cfg.N < 4000 {
		satVals = synth.YahooLike(42, 4000).Values
	}
	gate := make(chan struct{})
	var satMu sync.Mutex
	var satWG sync.WaitGroup
	for i := 0; i < cfg.Burst; i++ {
		satWG.Add(1)
		go func() {
			defer satWG.Done()
			<-gate
			_, err := tcl.Detect(context.Background(), satVals, nil)
			if serr, ok := err.(*httpapi.StatusError); ok && serr.IsSaturated() {
				satMu.Lock()
				sat.Shed++
				if serr.RetryAfterSeconds > sat.RetryAfterSeconds {
					sat.RetryAfterSeconds = serr.RetryAfterSeconds
				}
				satMu.Unlock()
			}
		}()
	}
	close(gate)
	satWG.Wait()
	snap := tiny.Recorder().Snapshot()
	sat.ShedCounter = snap.Counters[obs.CounterHTTPShed.String()]
	res.Saturation = sat
	tts.Close()
	tiny.Close()

	// --- session leg: auto-labeled active learning to convergence ---
	ssrv, _ := server.New(server.Config{JanitorEvery: -1})
	sts := httptest.NewServer(ssrv.Handler())
	scl := client.New(sts.URL)
	s := synth.YahooLike(7, cfg.N)
	truth := make([]string, s.Len())
	for i, l := range s.Labels {
		truth[i] = l.String()
	}
	sess := ServeSession{N: cfg.N, Gamma: cfg.Confidence, MinConfidence: 1}
	t0 := clk.Now()
	st, err := scl.CreateSession(context.Background(), httpapi.SessionRequest{
		Series:    s.Values,
		Options:   &httpapi.DetectOptions{Confidence: cfg.Confidence},
		AutoLabel: true,
		Truth:     truth,
	})
	for err == nil && st.State != httpapi.StateDone && st.State != httpapi.StateFailed {
		time.Sleep(5 * time.Millisecond)
		st, err = scl.Session(context.Background(), st.ID)
	}
	sess.Seconds = clk.Now().Sub(t0).Seconds()
	if err == nil && st.State == httpapi.StateDone && st.Result != nil {
		sess.Queries = st.Queries
		for _, d := range append(st.Result.Anomalies, st.Result.ChangePoints...) {
			if d.Confidence < sess.MinConfidence {
				sess.MinConfidence = d.Confidence
			}
		}
		sess.Converged = sess.MinConfidence >= cfg.Confidence
	}
	res.Session = sess
	sts.Close()
	ssrv.Close()
	return res
}

// quantile reads the q-th quantile from sorted xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs)) + 0.5)
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// PrintServe renders the serving benchmark.
func PrintServe(w io.Writer, r ServeResult) {
	fprintf(w, "Serving benchmark: cabd-serve over loopback HTTP\n")
	fprintf(w, "detect: %d requests x %d clients, n=%d: %.1f req/s (p50 %.1fms p90 %.1fms p99 %.1fms, %d errors)\n",
		r.Requests, r.Concurrency, r.N, r.ReqPerSec, r.P50Ms, r.P90Ms, r.P99Ms, r.Errors)
	fprintf(w, "saturation: burst %d at workers=1 queue=1: %d shed (server counter %d), Retry-After <= %ds\n",
		r.Saturation.Burst, r.Saturation.Shed, r.Saturation.ShedCounter, r.Saturation.RetryAfterSeconds)
	fprintf(w, "session: n=%d auto-labeled, %d queries, min confidence %.3f vs gamma %.2f, converged=%v (%.2fs)\n",
		r.Session.N, r.Session.Queries, r.Session.MinConfidence, r.Session.Gamma, r.Session.Converged, r.Session.Seconds)
}

// WriteServeJSON writes the serving benchmark to path as indented JSON.
func WriteServeJSON(path string, r ServeResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
