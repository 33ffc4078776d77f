package agent

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cabd"
	"cabd/client"
	"cabd/httpapi"
	"cabd/internal/agent/faultproxy"
	"cabd/internal/obs"
	"cabd/internal/server"
	"cabd/internal/synth"
)

// noSleep satisfies the agent's pacing without waiting: tests drive
// PollOnce directly, so real delays only slow the suite down.
func noSleep(ctx context.Context, d time.Duration) error {
	return ctx.Err()
}

// baseConfig returns a runnable config over fresh temp dirs.
func baseConfig(t testing.TB, serverURL string) Config {
	t.Helper()
	cfg := Default()
	cfg.Name = "a1"
	cfg.Server = serverURL
	cfg.SourceDir = t.TempDir()
	cfg.StateDir = t.TempDir()
	cfg.Backoff = client.Backoff{Base: time.Millisecond, Jitter: -1, Seed: 1}
	cfg.MaxAttempts = 2
	cfg.Window = 64
	cfg.Hop = 8
	cfg.Margin = 4
	cfg.Seed = 5
	cfg.Sleep = noSleep
	return cfg
}

// ingestSink is a minimal in-test ingest endpoint recording the keys it
// acknowledged. failWith toggles fault injection.
type ingestSink struct {
	mu       sync.Mutex
	keys     []string
	failBody string // non-empty: answer 503 with this JSON body
}

func (s *ingestSink) setFail(body string) {
	s.mu.Lock()
	s.failBody = body
	s.mu.Unlock()
}

func (s *ingestSink) acked() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.keys...)
}

func (s *ingestSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	fail := s.failBody
	s.mu.Unlock()
	if fail != "" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(fail))
		return
	}
	var req httpapi.IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	for _, d := range req.Detections {
		s.keys = append(s.keys, d.Key)
	}
	n := len(req.Detections)
	s.mu.Unlock()
	_ = json.NewEncoder(w).Encode(httpapi.IngestResponse{Accepted: n})
}

// TestBackoffScheduleExact pins the retry delays the agent's transport
// produces — no sleeping, a recording Sleep sees the exact schedule.
func TestBackoffScheduleExact(t *testing.T) {
	cases := []struct {
		name     string
		failBody string
		want     []time.Duration
	}{
		{
			// Pure exponential: Base 100ms, Factor 2, no jitter.
			name:     "exponential",
			failBody: `{"error":"injected"}`,
			want: []time.Duration{
				100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
			},
		},
		{
			// The server's Retry-After hint exceeds every computed delay,
			// so it wins each time.
			name:     "retry-after wins",
			failBody: `{"error":"injected","retry_after_seconds":2}`,
			want: []time.Duration{
				2 * time.Second, 2 * time.Second, 2 * time.Second,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &ingestSink{}
			sink.setFail(tc.failBody)
			ts := httptest.NewServer(sink)
			defer ts.Close()

			var slept []time.Duration
			cfg := baseConfig(t, ts.URL)
			cfg.Backoff = client.Backoff{
				Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: -1, Seed: 1,
			}
			cfg.MaxAttempts = 4
			cfg.Sleep = func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			}
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a.queue = dets("cpu", 0, 1)

			if err := a.PollOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slept, tc.want) {
				t.Fatalf("sleep schedule = %v, want %v", slept, tc.want)
			}
			if got := a.rec.Count(obs.CounterAgentRetries); got != int64(len(tc.want)) {
				t.Fatalf("retries counter = %d, want %d", got, len(tc.want))
			}
			// The detection survived the outage on disk, not in memory.
			if a.rec.Count(obs.CounterAgentSpilled) != 1 || a.Pending() != 1 {
				t.Fatalf("spilled = %d pending = %d, want 1/1",
					a.rec.Count(obs.CounterAgentSpilled), a.Pending())
			}

			// Recovery: the next poll replays the spill in order.
			sink.setFail("")
			if err := a.PollOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			if a.Pending() != 0 {
				t.Fatalf("pending after recovery = %d, want 0", a.Pending())
			}
			if a.rec.Count(obs.CounterAgentReplayed) != 1 {
				t.Fatalf("replayed counter = %d, want 1", a.rec.Count(obs.CounterAgentReplayed))
			}
			if got := sink.acked(); len(got) != 1 || got[0] != "a/cpu/0" {
				t.Fatalf("server acked %v, want the spilled key", got)
			}
		})
	}
}

// appendCSV appends values to a source file, one per line.
func appendCSV(t *testing.T, path string, vals []float64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, v := range vals {
		if _, err := fmt.Fprintf(f, "%g\n", v); err != nil {
			t.Fatal(err)
		}
	}
}

// referenceDetections runs the same values through one offline detector
// with the agent's configuration — the ground truth for loss accounting.
func referenceDetections(cfg Config, vals []float64) int {
	det := cabd.NewStream(cabd.StreamConfig{
		Window: cfg.Window, Hop: cfg.Hop, Margin: cfg.Margin,
		Options: cabd.Options{Seed: cfg.Seed},
	})
	n := 0
	for _, v := range vals {
		n += len(det.Push(v))
	}
	return n
}

// TestZeroLossAcrossRestarts is the headline crash-safety test: the
// server is killed mid-run and restarted from its checkpoint dir, the
// agents are "crashed" (rebuilt from their state dirs) while detections
// sit in their spill buffers — and the server's final unique counts, in
// total, per agent and per stream, still equal offline reference
// detectors run over the same values. The cases are one agent with one
// CSV stream, and a fleet of two agents with two streams each that
// polls concurrently in every phase.
func TestZeroLossAcrossRestarts(t *testing.T) {
	for _, fc := range []struct {
		agents, streams int
		seed            int64 // of the first stream's series; the rest count up
	}{{1, 1, 9}, {2, 2, 1}} {
		t.Run(fmt.Sprintf("%dx%d", fc.agents, fc.streams), func(t *testing.T) {
			checkZeroLoss(t, fc.agents, fc.streams, fc.seed)
		})
	}
}

// checkZeroLoss runs one case of TestZeroLossAcrossRestarts: a fleet of
// the given shape through a server outage and restart and an agent crash.
func checkZeroLoss(t *testing.T, agents, streams int, seed int64) {
	t.Helper()
	ckptDir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	start := func(ln net.Listener) (*server.Server, *http.Server) {
		srv, err := server.New(server.Config{CheckpointDir: ckptDir, JanitorEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		return srv, hs
	}
	srv, hs := start(ln)

	// Stream names carry the agent's, so the server's per-stream counts
	// are per (agent, stream).
	type fleetStream struct {
		name  string
		agent int
		vals  []float64
	}
	var fleetStreams []fleetStream
	cfgs := make([]Config, agents)
	for i := range cfgs {
		cfgs[i] = baseConfig(t, "http://"+addr)
		cfgs[i].Name = fmt.Sprintf("a%d", i)
		for st := range streams {
			fleetStreams = append(fleetStreams, fleetStream{fmt.Sprintf("a%d-s%d", i, st), i,
				synth.YahooLike(seed+int64(i*streams+st), 900).Values})
		}
	}
	appendAll := func(from, to int) {
		for _, s := range fleetStreams {
			appendCSV(t, filepath.Join(cfgs[s.agent].SourceDir, s.name+".csv"), s.vals[from:to])
		}
	}
	newFleet := func() []*Agent {
		fleet := make([]*Agent, agents)
		for i, cfg := range cfgs {
			if fleet[i], err = New(cfg); err != nil {
				t.Fatal(err)
			}
		}
		return fleet
	}
	ctx := context.Background()
	pollAll := func(fleet []*Agent) {
		errs := make([]error, len(fleet))
		var wg sync.WaitGroup
		for i, a := range fleet {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = a.PollOnce(ctx)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("agent a%d: %v", i, err)
			}
		}
	}

	// Phase 1: healthy forwarding.
	appendAll(0, 300)
	fleet := newFleet()
	pollAll(fleet)

	// Phase 2: server dies; the next poll's detections spill to disk.
	_ = hs.Close()
	srv.Close()
	appendAll(300, 600)
	pollAll(fleet)
	for i, a := range fleet {
		if a.rec.Count(obs.CounterAgentSpilled) == 0 {
			t.Fatalf("agent a%d spilled nothing in the outage; its phase boundaries produced no detections — grow the series", i)
		}
	}

	// Phase 3: the agents crash too. New processes inherit the
	// checkpoints (offsets + detector snapshots) and the spill buffers.
	fleet = newFleet()

	// Phase 4: server restarts on the same address from its checkpoint.
	var ln2 net.Listener
	for range 50 {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2, hs2 := start(ln2)
	defer func() { _ = hs2.Close(); srv2.Close() }()

	// Phase 5: the rest of the streams; each poll replays its spill first.
	appendAll(600, 900)
	pollAll(fleet)
	for i, a := range fleet {
		if a.Pending() != 0 {
			t.Fatalf("agent a%d: pending after recovery = %d, want 0", i, a.Pending())
		}
	}

	var want int64
	wantAgent, wantStream := map[string]int64{}, map[string]int64{}
	for _, s := range fleetStreams {
		n := int64(referenceDetections(cfgs[s.agent], s.vals))
		want += n
		wantAgent[cfgs[s.agent].Name] += n
		wantStream[s.name] = n
	}
	if want == 0 {
		t.Fatal("reference runs found no detections; the test proves nothing")
	}
	stats, err := client.New(cfgs[0].Server).IngestStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != want {
		t.Fatalf("server holds %d unique detections, reference runs produced %d — detections were lost or double counted",
			stats.Total, want)
	}
	if !reflect.DeepEqual(stats.ByAgent, wantAgent) || !reflect.DeepEqual(stats.ByStream, wantStream) {
		t.Fatalf("per-agent/per-stream accounting off: got %v %v, want %v %v",
			stats.ByAgent, stats.ByStream, wantAgent, wantStream)
	}
}

// TestAgentThroughFaultProxy drives the agent against a real server
// through the fault proxy: 503 bursts and connection resets carve
// failure windows, and once the proxy passes again every detection
// arrives exactly once.
func TestAgentThroughFaultProxy(t *testing.T) {
	vals := synth.YahooLike(9, 900).Values

	srv, err := server.New(server.Config{JanitorEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	upstream := httptest.NewServer(srv.Handler())
	defer upstream.Close()

	p, err := faultproxy.New(upstream.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	defer front.Close()

	cfg := baseConfig(t, front.URL)
	csvPath := filepath.Join(cfg.SourceDir, "cpu.csv")
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	appendCSV(t, csvPath, vals[:300])
	if err := a.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}

	// 503 window, then a reset window: both polls end with the new
	// detections safe on disk, not lost.
	p.Set(faultproxy.ModeError, 0)
	appendCSV(t, csvPath, vals[300:600])
	if err := a.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	p.Set(faultproxy.ModeReset, 0)
	appendCSV(t, csvPath, vals[600:])
	if err := a.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.rec.Count(obs.CounterAgentSpilled) == 0 {
		t.Fatal("fault windows spilled nothing; the series produced no detections there")
	}

	p.Set(faultproxy.ModePass, 0)
	if err := a.PollOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if a.Pending() != 0 {
		t.Fatalf("pending after faults cleared = %d, want 0", a.Pending())
	}
	if p.Faults() == 0 {
		t.Fatal("proxy injected no faults")
	}

	want := referenceDetections(cfg, vals)
	if want == 0 {
		t.Fatal("reference run found no detections")
	}
	stats, err := client.New(upstream.URL).IngestStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Total != int64(want) {
		t.Fatalf("server holds %d detections, reference produced %d", stats.Total, want)
	}
}

// TestReloadSafeVsIdentity: SIGHUP-style reload applies pacing/batching/
// spill-cap/retry changes live and refuses identity changes with a log.
func TestReloadSafeVsIdentity(t *testing.T) {
	var logs []string
	cfg := baseConfig(t, "http://127.0.0.1:1")
	cfg.Logf = func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oldClient := a.cl

	next := cfg
	next.Name = "other" // identity: ignored
	next.Window = 256   // detector shape: ignored
	next.PollEvery = 5 * time.Second
	next.BatchSize = 99
	next.SpillMaxBytes = 123
	next.MaxAttempts = 7 // retry shape: rebuilds the client
	a.Reload(next)

	if a.cfg.Name != "a1" || a.cfg.Window != 64 {
		t.Fatalf("identity fields changed on reload: name %q window %d", a.cfg.Name, a.cfg.Window)
	}
	if a.cfg.PollEvery != 5*time.Second || a.cfg.BatchSize != 99 || a.cfg.SpillMaxBytes != 123 {
		t.Fatalf("safe fields not applied: %+v", a.cfg)
	}
	if a.spill.max != 123 {
		t.Fatalf("spill cap not propagated: %d", a.spill.max)
	}
	if a.cl == oldClient {
		t.Fatal("retry-shape change did not rebuild the client")
	}
	joined := strings.Join(logs, "\n")
	for _, want := range []string{"name change", "detector shape change", "reload applied"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("reload log missing %q in:\n%s", want, joined)
		}
	}
}

// TestDrainSpillsQueue: Run's shutdown path parks unsent detections on
// disk and checkpoints, so nothing is stranded in memory.
func TestDrainSpillsQueue(t *testing.T) {
	cfg := baseConfig(t, "http://127.0.0.1:1") // nothing listens: sends fail
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.queue = dets("cpu", 0, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain immediately after the first poll
	if err := a.Run(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := a.spill.pending(); got != 3 {
		t.Fatalf("spill holds %d after drain, want 3", got)
	}
	if _, err := os.Stat(filepath.Join(cfg.StateDir, "agent.json")); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}
}

// TestNegativeCheckpointOffsetRereads: a checkpoint holding a negative
// source offset used to fail every poll's seek, after which the poll
// skipped the source and the checkpoint wrote the bad offset back, so
// the source never produced a stream. The poll now re-reads the file
// from the top and checkpoints the valid offset.
func TestNegativeCheckpointOffsetRereads(t *testing.T) {
	ts := httptest.NewServer(&ingestSink{})
	defer ts.Close()
	cfg := baseConfig(t, ts.URL)
	path := filepath.Join(cfg.SourceDir, "cpu.csv")
	vals := synth.YahooLike(9, 600).Values
	appendCSV(t, path, vals)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := json.Marshal(checkpoint{Offsets: map[string]int64{path: -5}})
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(cfg.StateDir, "agent.json"), string(cp))

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PollOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if off := a.offsets[path]; off != info.Size() {
		t.Fatalf("offset after the poll = %d, want the file size %d", off, info.Size())
	}
	if det := a.streams["cpu"]; det == nil || det.Total() != len(vals) {
		t.Fatalf("stream = %v, want one that read all %d values", det, len(vals))
	}
	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if off := again.offsets[path]; off != info.Size() {
		t.Fatalf("checkpointed offset = %d, want %d", off, info.Size())
	}
}
