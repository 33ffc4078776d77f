package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"cabd/client"
	"cabd/httpapi"
	"cabd/internal/obs"
	"cabd/internal/server"
	"cabd/internal/synth"
)

// newTestServer boots one serving instance over a loopback listener with
// the background janitor disabled (tests drive sweeps directly).
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	cfg.JanitorEvery = -1
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, client.New(ts.URL)
}

// TestSessionLifecycleE2E drives the paper's interactive loop over real
// HTTP: create a session, poll the uncertainty-sampled pending
// candidate, answer from ground truth, and repeat until the run
// converges with every detection at or above the configured γ.
func TestSessionLifecycleE2E(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	s := synth.YahooLike(11, 400)
	gamma := 0.85

	labeled := 0
	st, err := cl.RunSession(context.Background(), httpapi.SessionRequest{
		Series:  s.Values,
		Options: &httpapi.DetectOptions{Confidence: gamma},
	}, func(index int, value float64) string {
		labeled++
		if index < 0 || index >= s.Len() {
			t.Fatalf("pending index %d outside the submitted series", index)
		}
		if value != s.Values[index] {
			t.Fatalf("pending value %v != series[%d] = %v", value, index, s.Values[index])
		}
		return s.Labels[index].String()
	}, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("RunSession: %v", err)
	}
	if st.State != httpapi.StateDone {
		t.Fatalf("final state %q (error %q), want done", st.State, st.Error)
	}
	if st.Result == nil {
		t.Fatal("done session carries no result")
	}
	if labeled == 0 || st.Queries != labeled {
		t.Fatalf("labels posted %d, session reports %d queries", labeled, st.Queries)
	}
	if st.Queries < 3 {
		t.Fatalf("session converged after %d queries, want the minimum exploration of 3", st.Queries)
	}
	for _, d := range append(st.Result.Anomalies, st.Result.ChangePoints...) {
		if d.Confidence < gamma {
			t.Errorf("detection at %d has confidence %v below gamma %v", d.Index, d.Confidence, gamma)
		}
	}
	// The done session stays addressable until evicted or cancelled.
	again, err := cl.Session(context.Background(), st.ID)
	if err != nil || again.State != httpapi.StateDone {
		t.Fatalf("re-fetch of done session: %+v, %v", again, err)
	}
	if err := cl.CancelSession(context.Background(), st.ID); err != nil {
		t.Fatalf("cancel done session: %v", err)
	}
	if _, err := cl.Session(context.Background(), st.ID); err == nil {
		t.Fatal("cancelled session still addressable")
	}
}

// TestSessionLabelConflicts pins the 409 paths: labeling a session with
// no pending query and labeling the wrong index.
func TestSessionLabelConflicts(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	s := synth.YahooLike(11, 400)
	st, err := cl.CreateSession(context.Background(), httpapi.SessionRequest{Series: s.Values})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State != httpapi.StateAwaitingLabel {
		if time.Now().After(deadline) {
			t.Fatalf("session never reached awaiting_label (state %s)", st.State)
		}
		time.Sleep(2 * time.Millisecond)
		if st, err = cl.Pending(context.Background(), st.ID); err != nil {
			t.Fatalf("pending: %v", err)
		}
	}
	wrong := st.Pending.Index + 1
	if _, err := cl.PostLabel(context.Background(), st.ID, wrong, httpapi.LabelNormal); err == nil {
		t.Fatal("labeling the wrong index succeeded")
	} else if serr, ok := err.(*httpapi.StatusError); !ok || serr.Status != http.StatusConflict {
		t.Fatalf("wrong-index label error = %v, want 409", err)
	}
	if _, err := cl.PostLabel(context.Background(), st.ID, st.Pending.Index, "bogus"); err == nil {
		t.Fatal("posting an unknown label succeeded")
	}
}

// TestSaturationShedsWith429 fills a one-worker, one-slot server with a
// concurrent burst and requires real shedding: 429 replies carrying a
// Retry-After header, and the shed visible in /metrics alongside the
// queue-depth gauge.
func TestSaturationShedsWith429(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{Workers: 1, QueueDepth: 1})
	vals := synth.YahooLike(42, 4000).Values
	body, err := json.Marshal(httpapi.DetectRequest{Series: vals})
	if err != nil {
		t.Fatal(err)
	}

	const burst = 12
	type reply struct {
		status     int
		retryAfter string
	}
	replies := make([]reply, burst)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("burst request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			replies[i] = reply{resp.StatusCode, resp.Header.Get("Retry-After")}
		}(i)
	}
	close(gate)
	wg.Wait()

	var ok, shed int
	for i, r := range replies {
		switch r.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			// One waiting caller per worker: the queue estimate is 1 s.
			if r.retryAfter != "1" {
				t.Errorf("429 reply %d Retry-After = %q, want the queue estimate 1", i, r.retryAfter)
			}
		default:
			t.Errorf("burst reply %d: unexpected status %d", i, r.status)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("burst of %d: %d ok, %d shed; want both admission and shedding", burst, ok, shed)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	shedRE := regexp.MustCompile(`(?m)^cabd_http_shed_total (\d+)$`)
	m := shedRE.FindSubmatch(metrics)
	if m == nil {
		t.Fatal("/metrics has no cabd_http_shed_total sample")
	}
	if n, _ := strconv.Atoi(string(m[1])); n < shed {
		t.Errorf("cabd_http_shed_total = %s, want >= %d client-observed sheds", m[1], shed)
	}
	if !regexp.MustCompile(`(?m)^cabd_queue_depth \d+$`).Match(metrics) {
		t.Error("/metrics has no cabd_queue_depth gauge")
	}
}

// TestConcurrentHammer mixes every request family against one shared
// server; run under -race it proves the tables, pool and recorder are
// safe for concurrent use.
func TestConcurrentHammer(t *testing.T) {
	_, ts, cl := newTestServer(t, server.Config{Workers: 2, QueueDepth: 32})
	s := synth.YahooLike(13, 256)
	truth := make([]string, s.Len())
	for i, l := range s.Labels {
		truth[i] = l.String()
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch w % 3 {
				case 0:
					if _, err := cl.Detect(ctx, s.Values, nil); err != nil {
						if serr, ok := err.(*httpapi.StatusError); !ok || !serr.IsSaturated() {
							t.Errorf("worker %d detect: %v", w, err)
						}
					}
				case 1:
					id := fmt.Sprintf("h%d", w)
					if _, err := cl.StreamPush(ctx, id, s.Values[:64]); err != nil {
						t.Errorf("worker %d stream: %v", w, err)
					}
				case 2:
					st, err := cl.CreateSession(ctx, httpapi.SessionRequest{
						Series: s.Values, AutoLabel: true, Truth: truth,
					})
					if err != nil {
						if serr, ok := err.(*httpapi.StatusError); !ok || !serr.IsSaturated() {
							t.Errorf("worker %d session: %v", w, err)
						}
						continue
					}
					for {
						st, err = cl.Session(ctx, st.ID)
						if err != nil || st.State == httpapi.StateDone || st.State == httpapi.StateFailed {
							break
						}
						time.Sleep(time.Millisecond)
					}
					if err != nil {
						t.Errorf("worker %d poll: %v", w, err)
					}
				}
				if _, err := http.Get(ts.URL + "/metrics"); err != nil {
					t.Errorf("worker %d metrics: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestIdleEvictionFakeClock proves the janitor's sweep fires on the
// injected clock alone: a parked session and a live stream both idle
// past their TTLs are reclaimed the moment the fake clock crosses the
// horizon, with the evictions counted.
func TestIdleEvictionFakeClock(t *testing.T) {
	clk := obs.NewFakeClock(time.Time{})
	rec := obs.NewWithClock(clk)
	srv, _, cl := newTestServer(t, server.Config{
		Recorder:   rec,
		SessionTTL: time.Minute,
		StreamTTL:  time.Minute,
	})
	ctx := context.Background()
	s := synth.YahooLike(11, 400)

	if _, err := cl.StreamPush(ctx, "evictme", s.Values[:64]); err != nil {
		t.Fatalf("stream push: %v", err)
	}
	st, err := cl.CreateSession(ctx, httpapi.SessionRequest{Series: s.Values})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}

	// Not idle yet: a sweep at the TTL boundary must keep both.
	clk.Advance(time.Minute)
	srv.Sweep()
	if _, err := cl.Session(ctx, st.ID); err != nil {
		t.Fatalf("session evicted before its TTL elapsed: %v", err)
	}

	// The status poll above touched the session's idle clock, so cross
	// the horizon from that touch, not from creation.
	clk.Advance(2 * time.Minute)
	srv.Sweep()
	if _, err := cl.Session(ctx, st.ID); err == nil {
		t.Fatal("idle session survived the sweep")
	}
	if _, err := cl.StreamClose(ctx, "evictme"); err == nil {
		t.Fatal("idle stream survived the sweep")
	}
	snap := rec.Snapshot()
	if got := snap.Counters[obs.CounterIdleEvictions.String()]; got != 2 {
		t.Fatalf("idle_evictions_total = %d, want 2 (one stream, one session)", got)
	}
	if snap.Gauges[obs.GaugeSessionsActive.String()] != 0 || snap.Gauges[obs.GaugeStreamsActive.String()] != 0 {
		t.Fatalf("active gauges not zeroed after eviction: %v", snap.Gauges)
	}
}

// TestDeadlineDegradationFakeClock pins the serving layer's graceful
// degradation: the request deadline is computed on the injected clock,
// so a stepping clock that burns the budget before the scoring pilot
// forces the fixed-knn fallback deterministically — no sleeps, and the
// real context timer (an hour out) never fires.
func TestDeadlineDegradationFakeClock(t *testing.T) {
	clk := obs.NewFakeClock(time.Now().Add(time.Hour))
	clk.SetStep(40 * time.Millisecond)
	rec := obs.NewWithClock(clk)
	_, _, cl := newTestServer(t, server.Config{Recorder: rec})

	vals := synth.YahooLike(42, 900).Values
	res, err := cl.Detect(context.Background(), vals, &httpapi.DetectOptions{TimeoutMS: 200})
	if err != nil {
		t.Fatalf("detect under fake deadline pressure: %v", err)
	}
	if !res.Degraded {
		t.Fatal("detection kept its strategy with the fake clock past the deadline budget")
	}
	if res.Strategy != "fixed-knn" {
		t.Fatalf("degraded strategy = %q, want fixed-knn", res.Strategy)
	}
	if res.DegradeReason == "" {
		t.Fatal("degraded result carries no reason")
	}
}

// TestExactRequestLatencyFakeClock: the request span brackets a handler
// with exactly one Now pair, so with a stepping clock the http_request
// histogram records exactly one step — the serving layer reads no
// hidden wall clock on the hot path.
func TestExactRequestLatencyFakeClock(t *testing.T) {
	clk := obs.NewFakeClock(time.Time{})
	clk.SetStep(5 * time.Millisecond)
	rec := obs.NewWithClock(clk)
	_, ts, _ := newTestServer(t, server.Config{Recorder: rec})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	snap := rec.Snapshot()
	for _, st := range snap.Stages {
		if st.Stage != obs.StageHTTPRequest.String() {
			continue
		}
		if st.Count != 1 || st.TotalSeconds != 0.005 {
			t.Fatalf("http_request histogram = %d obs, %vs total; want exactly 1 obs of 0.005s",
				st.Count, st.TotalSeconds)
		}
		return
	}
	t.Fatal("no http_request stage in the recorder snapshot")
}

// TestDrainRefusesNewWork: once draining, readiness flips and every
// ingress family answers 503.
func TestDrainRefusesNewWork(t *testing.T) {
	srv, err := server.New(server.Config{JanitorEvery: -1})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, "/readyz", ""},
		{http.MethodPost, "/v1/detect", `{"series":[1,2,3,4,5]}`},
		{http.MethodPost, "/v1/detect/batch", `{"series_set":[[1,2,3,4,5]]}`},
		{http.MethodPost, "/v1/detect/multi", `{"channels":[[1,2,3,4,5]]}`},
		{http.MethodPost, "/v1/stream/x", "1\n"},
		{http.MethodDelete, "/v1/stream/x", ""},
		{http.MethodPost, "/v1/sessions", `{"series":[1,2,3,4,5]}`},
		{http.MethodPost, "/v1/ingest", `{"agent":"a1","detections":[]}`},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewBufferString(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s %s while draining = %d, want 503", c.method, c.path, resp.StatusCode)
		}
	}
}

// TestDetectBatchMatchesDetect: /v1/detect/batch answers each series
// as /v1/detect does, apart from the stage timings, and a series that
// cannot be detected gets its own error entry without failing the rest.
func TestDetectBatchMatchesDetect(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	ctx := context.Background()
	set := [][]float64{synth.YahooLike(4, 300).Values, {1, 2}, synth.YahooLike(5, 300).Values}
	batch, err := cl.DetectBatch(ctx, set, nil)
	if err != nil {
		t.Fatalf("DetectBatch: %v", err)
	}
	if len(batch.Results) != len(set) || len(batch.Errors) != len(set) {
		t.Fatalf("batch reply has %d results and %d errors for %d series",
			len(batch.Results), len(batch.Errors), len(set))
	}
	if got, want := batch.Errors[1], "sanitize: series too short (2 < 4)"; got != want {
		t.Errorf("short series error = %q, want %q", got, want)
	}
	for _, i := range []int{0, 2} {
		if batch.Errors[i] != "" {
			t.Fatalf("series %d: unexpected error %q", i, batch.Errors[i])
		}
		one, err := cl.Detect(ctx, set[i], nil)
		if err != nil {
			t.Fatalf("series %d: Detect: %v", i, err)
		}
		got := batch.Results[i]
		if len(got.Anomalies)+len(got.ChangePoints) == 0 {
			t.Fatalf("series %d: the fixture must detect something", i)
		}
		got.StageSeconds, one.StageSeconds = nil, nil
		if !reflect.DeepEqual(&got, one) {
			t.Errorf("series %d: batch result differs from /v1/detect\n got %+v\nwant %+v", i, got, *one)
		}
	}
}

// TestSessionList: GET /v1/sessions lists the live sessions, sorted by
// id; a cancelled one is gone from the list.
func TestSessionList(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	ctx := context.Background()
	vals := synth.YahooLike(11, 400).Values
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := cl.CreateSession(ctx, httpapi.SessionRequest{Series: vals})
		if err != nil {
			t.Fatalf("create session %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	if err := cl.CancelSession(ctx, ids[1]); err != nil {
		t.Fatalf("cancel %s: %v", ids[1], err)
	}
	list, err := cl.Sessions(ctx)
	if err != nil {
		t.Fatalf("Sessions: %v", err)
	}
	var got []string
	for _, st := range list.Sessions {
		got = append(got, st.ID)
	}
	want := []string{ids[0], ids[2]}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("listed sessions %v, want %v", got, want)
	}
}

// TestStreamCapShedsOverHTTP: a push that would open a stream past
// MaxStreams answers 429 with Retry-After, and counts as one shed.
//
// A stream slot frees only on a close or an idle eviction, so the shed
// advises the idle TTL while no janitor runs (newTestServer turns it
// off), and the janitor period once one does.
func TestStreamCapShedsOverHTTP(t *testing.T) {
	srv, ts, cl := newTestServer(t, server.Config{MaxStreams: 1})
	if _, err := cl.StreamPush(context.Background(), "a", []float64{1}); err != nil {
		t.Fatalf("push within the cap: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/stream/b", "application/x-ndjson", bytes.NewBufferString("1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sec := shedAdvice(t, resp); sec != 600 {
		t.Errorf("stream cap shed advises %d s, want the default 600 s stream TTL", sec)
	}
	if got := srv.Recorder().Count(obs.CounterHTTPShed); got != 1 {
		t.Errorf("http_shed_total = %d, want 1", got)
	}

	ts = janitorServer(t, server.Config{MaxStreams: 1, JanitorEvery: 45 * time.Second})
	if _, err := client.New(ts.URL).StreamPush(context.Background(), "a", []float64{1}); err != nil {
		t.Fatalf("push within the cap: %v", err)
	}
	resp, err = http.Post(ts.URL+"/v1/stream/b", "application/x-ndjson", bytes.NewBufferString("1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sec := shedAdvice(t, resp); sec != 45 {
		t.Errorf("stream cap shed with a 45 s janitor advises %d s, want 45", sec)
	}
}

// TestSessionCapShedsOverHTTP: a session past MaxSessions answers 429,
// advising the session TTL while no janitor runs and the janitor period
// once one does, since only a close or an idle eviction frees a slot.
func TestSessionCapShedsOverHTTP(t *testing.T) {
	req := httpapi.SessionRequest{Series: synth.YahooLike(11, 400).Values}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cfg  server.Config
		want int
	}{
		{server.Config{MaxSessions: 1, SessionTTL: 2 * time.Minute, JanitorEvery: -1}, 120},
		{server.Config{MaxSessions: 1, SessionTTL: 2 * time.Minute, JanitorEvery: 1500 * time.Millisecond}, 2},
	} {
		ts := janitorServer(t, tc.cfg)
		if _, err := client.New(ts.URL).CreateSession(context.Background(), req); err != nil {
			t.Fatalf("session within the cap: %v", err)
		}
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if sec := shedAdvice(t, resp); sec != tc.want {
			t.Errorf("janitor every %v: session cap shed advises %d s, want %d", tc.cfg.JanitorEvery, sec, tc.want)
		}
	}
}

// janitorServer is newTestServer without turning the janitor off.
func janitorServer(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// shedAdvice closes a reply that must be a 429 and returns the back-off
// it advises, checking that the Retry-After header and the body's
// retry_after_seconds agree.
func shedAdvice(t *testing.T, resp *http.Response) int {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	var e httpapi.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	sec, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || sec != e.RetryAfterSeconds {
		t.Fatalf("Retry-After %q, body retry_after_seconds %d: want one integer", resp.Header.Get("Retry-After"), e.RetryAfterSeconds)
	}
	return sec
}

// TestStreamLifecycle covers ingest shapes ({"v":x} and bare numbers),
// lifetime counters and the flush-on-close reply.
func TestStreamLifecycle(t *testing.T) {
	_, ts, cl := newTestServer(t, server.Config{})
	ctx := context.Background()
	vals := synth.YahooLike(17, 512).Values

	r1, err := cl.StreamPush(ctx, "s", vals[:300])
	if err != nil {
		t.Fatalf("push 1: %v", err)
	}
	if r1.Accepted != 300 || r1.Total != 300 {
		t.Fatalf("push 1 accounting: %+v", r1)
	}
	// The object form ingests identically to bare numbers.
	body := bytes.NewBufferString(`{"v": 1.5}` + "\n" + `2.5` + "\n")
	resp, err := http.Post(ts.URL+"/v1/stream/s", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	var r2 httpapi.StreamIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&r2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if r2.Accepted != 2 || r2.Total != 302 {
		t.Fatalf("push 2 accounting: %+v", r2)
	}
	r3, err := cl.StreamClose(ctx, "s")
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if !r3.Flushed || r3.Total != 302 {
		t.Fatalf("close reply: %+v", r3)
	}
	if _, err := cl.StreamClose(ctx, "s"); err == nil {
		t.Fatal("closing a closed stream succeeded")
	}
}

// TestRequestValidation pins the client-fault statuses: malformed JSON,
// oversized bodies, bad options and unknown routes.
func TestRequestValidation(t *testing.T) {
	_, ts, cl := newTestServer(t, server.Config{MaxBodyBytes: 1024})
	ctx := context.Background()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := post("/v1/detect", "{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", got)
	}
	big := make([]float64, 1024)
	if _, err := cl.Detect(ctx, big, nil); err == nil {
		t.Error("oversized body accepted")
	} else if serr, ok := err.(*httpapi.StatusError); !ok || serr.Status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body error = %v, want 413", err)
	}
	if _, err := cl.Detect(ctx, []float64{1, 2, 3}, &httpapi.DetectOptions{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := cl.Detect(ctx, []float64{1, 2}, nil); err == nil {
		t.Error("too-short series accepted")
	} else if serr, ok := err.(*httpapi.StatusError); !ok || serr.Status != http.StatusUnprocessableEntity {
		t.Errorf("too-short series error = %v, want 422", err)
	}
	if _, err := cl.Session(ctx, "nosuch"); err == nil {
		t.Error("missing session lookup succeeded")
	}
}
