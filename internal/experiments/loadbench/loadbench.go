// Package loadbench measures the collector fleet end to end: N
// cabd-agent instances × M streams each forwarding into one cabd-serve,
// with a mid-run server crash/restart in the middle of the stream. It
// proves the at-least-once pipeline loses nothing — the server's final
// unique detection count equals an offline reference detector run over
// the same values — and probes the serving layer's shed point with an
// escalating concurrent burst. It lives beside (not inside)
// internal/experiments because it imports internal/server.
package loadbench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cabd"
	"cabd/client"
	"cabd/httpapi"
	"cabd/internal/agent"
	"cabd/internal/obs"
	"cabd/internal/server"
	"cabd/internal/synth"
)

// clk is the package time source; the deterministic-clock test harness
// applies here the same way it does in internal/experiments.
var clk obs.Clock = obs.Wall

func fprintf(w io.Writer, format string, args ...interface{}) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// LoadConfig parameterizes the load experiment. Zero-valued fields take
// defaults.
type LoadConfig struct {
	// Agents × Streams is the fleet shape (defaults 3 × 3); Values is
	// the per-stream series length (default 900).
	Agents  int
	Streams int
	Values  int
	// RampMax bounds the shed-point probe: concurrent detect bursts
	// double from 1 up to RampMax (default 32).
	RampMax int
}

func (c LoadConfig) defaults() LoadConfig {
	if c.Agents <= 0 {
		c.Agents = 3
	}
	if c.Streams <= 0 {
		c.Streams = 3
	}
	if c.Values <= 0 {
		c.Values = 900
	}
	if c.RampMax <= 0 {
		c.RampMax = 32
	}
	return c
}

// ShedProbe is one rung of the shed-point ramp: Burst concurrent detect
// calls against a one-worker/one-slot server, and how many were shed.
type ShedProbe struct {
	Burst             int `json:"burst"`
	Shed              int `json:"shed"`
	RetryAfterSeconds int `json:"retry_after_seconds"`
}

// LoadResult is the machine-readable load experiment that cmd/cabd-bench
// emits as BENCH_load.json.
type LoadResult struct {
	Agents  int `json:"agents"`
	Streams int `json:"streams"`
	Values  int `json:"values"`

	// Reference is the offline detector's count over the same values —
	// the ground truth. Ingested is the server's unique count after the
	// crash/restart cycle; Lost = Reference − Ingested must be zero.
	Reference  int64 `json:"reference"`
	Ingested   int64 `json:"ingested"`
	Duplicates int64 `json:"duplicates"`
	Lost       int64 `json:"lost"`
	ZeroLoss   bool  `json:"zero_loss"`

	// Spilled / Replayed sum the fleet's outage traffic: detections
	// parked on disk while the server was down, then drained.
	Spilled  int64 `json:"spilled"`
	Replayed int64 `json:"replayed"`

	Seconds float64 `json:"seconds"`

	// ShedPoint is the smallest probed burst that saw a 429 (0 when the
	// ramp never saturated); Ramp records every rung.
	ShedPoint int         `json:"shed_point"`
	Ramp      []ShedProbe `json:"ramp"`
}

// streamVals generates the per-(agent, stream) series deterministically.
func streamVals(cfg LoadConfig, ag, st int) []float64 {
	return synth.YahooLike(int64(1+ag*cfg.Streams+st), cfg.Values).Values
}

// agentConfig builds one collector's config over its own directories.
func agentConfig(name, serverURL, srcDir, stateDir string) agent.Config {
	c := agent.Default()
	c.Name = name
	c.Server = serverURL
	c.SourceDir = srcDir
	c.StateDir = stateDir
	c.Backoff = client.Backoff{Base: time.Millisecond, Jitter: -1, Seed: 1}
	c.MaxAttempts = 2
	c.Window = 64
	c.Hop = 8
	c.Margin = 4
	c.Seed = 5
	// The experiment drives PollOnce directly; retry pauses collapse so
	// the outage leg doesn't wait out real backoff.
	c.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	return c
}

// LoadBench runs the experiment. Temporary state lives under a scratch
// directory and is removed on return.
func LoadBench(cfg LoadConfig) (LoadResult, error) {
	cfg = cfg.defaults()
	res := LoadResult{Agents: cfg.Agents, Streams: cfg.Streams, Values: cfg.Values}
	start := clk.Now()

	scratch, err := os.MkdirTemp("", "cabd-loadbench-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(scratch)

	// --- zero-loss leg: fleet vs a crash/restart cycle ---
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	addr := ln.Addr().String()
	ckptDir := filepath.Join(scratch, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return res, err
	}
	boot := func(ln net.Listener) (*server.Server, *http.Server, error) {
		srv, err := server.New(server.Config{CheckpointDir: ckptDir, JanitorEvery: -1})
		if err != nil {
			return nil, nil, err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		return srv, hs, nil
	}
	srv, hs, err := boot(ln)
	if err != nil {
		return res, err
	}

	agents := make([]*agent.Agent, cfg.Agents)
	srcDirs := make([]string, cfg.Agents)
	for i := range agents {
		srcDirs[i] = filepath.Join(scratch, fmt.Sprintf("a%d-src", i))
		stateDir := filepath.Join(scratch, fmt.Sprintf("a%d-state", i))
		if err := os.MkdirAll(srcDirs[i], 0o755); err != nil {
			return res, err
		}
		a, err := agent.New(agentConfig(fmt.Sprintf("a%d", i), "http://"+addr, srcDirs[i], stateDir))
		if err != nil {
			return res, err
		}
		agents[i] = a
	}

	// writeChunk appends values[from:to] of every stream to its source
	// file; pollAll drives every collector through one concurrent cycle.
	writeChunk := func(from, to int) error {
		for i := range agents {
			for st := 0; st < cfg.Streams; st++ {
				path := filepath.Join(srcDirs[i], fmt.Sprintf("s%02d.csv", st))
				f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					return err
				}
				for _, v := range streamVals(cfg, i, st)[from:to] {
					if _, err := fmt.Fprintf(f, "%g\n", v); err != nil {
						f.Close()
						return err
					}
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	pollAll := func() {
		var wg sync.WaitGroup
		for _, a := range agents {
			wg.Add(1)
			go func(a *agent.Agent) {
				defer wg.Done()
				_ = a.PollOnce(context.Background())
			}(a)
		}
		wg.Wait()
	}

	third := cfg.Values / 3
	// Phase 1: healthy fleet.
	if err := writeChunk(0, third); err != nil {
		return res, err
	}
	pollAll()
	// Phase 2: server crashes mid-run; this cycle's detections spill.
	_ = hs.Close()
	srv.Close()
	if err := writeChunk(third, 2*third); err != nil {
		return res, err
	}
	pollAll()
	// Phase 3: restart on the same address from the checkpoint dir, then
	// the rest of the stream — the spill replays in order first.
	var ln2 net.Listener
	for i := 0; i < 100; i++ {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return res, fmt.Errorf("relisten %s: %w", addr, err)
	}
	srv2, hs2, err := boot(ln2)
	if err != nil {
		return res, err
	}
	if err := writeChunk(2*third, cfg.Values); err != nil {
		return res, err
	}
	pollAll()
	pollAll() // one extra cycle drains anything a racing phase left behind

	stats, err := client.New("http://" + addr).IngestStats(context.Background())
	if err != nil {
		return res, err
	}
	_ = hs2.Close()
	srv2.Close()

	for i := range agents {
		rec := agents[i].Recorder()
		res.Spilled += rec.Count(obs.CounterAgentSpilled)
		res.Replayed += rec.Count(obs.CounterAgentReplayed)
	}
	for i := range agents {
		for st := 0; st < cfg.Streams; st++ {
			det := cabd.NewStream(cabd.StreamConfig{
				Window: 64, Hop: 8, Margin: 4, Options: cabd.Options{Seed: 5},
			})
			for _, v := range streamVals(cfg, i, st) {
				res.Reference += int64(len(det.Push(v)))
			}
		}
	}
	res.Ingested = stats.Total
	res.Duplicates = stats.Duplicates
	res.Lost = res.Reference - res.Ingested
	res.ZeroLoss = res.Lost == 0

	// --- shed-point leg: escalate concurrency until the server sheds ---
	tiny, err := server.New(server.Config{Workers: 1, QueueDepth: 1, JanitorEvery: -1})
	if err != nil {
		return res, err
	}
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tiny.Close()
		return res, err
	}
	ths := &http.Server{Handler: tiny.Handler()}
	go func() { _ = ths.Serve(tln) }()
	tcl := client.New("http://" + tln.Addr().String())
	burstVals := synth.YahooLike(42, 4000).Values
	for burst := 1; burst <= cfg.RampMax; burst *= 2 {
		probe := ShedProbe{Burst: burst}
		gate := make(chan struct{})
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				_, err := tcl.Detect(context.Background(), burstVals, nil)
				if serr, ok := err.(*httpapi.StatusError); ok && serr.IsSaturated() {
					mu.Lock()
					probe.Shed++
					if serr.RetryAfterSeconds > probe.RetryAfterSeconds {
						probe.RetryAfterSeconds = serr.RetryAfterSeconds
					}
					mu.Unlock()
				}
			}()
		}
		close(gate)
		wg.Wait()
		res.Ramp = append(res.Ramp, probe)
		if probe.Shed > 0 {
			res.ShedPoint = burst
			break
		}
	}
	_ = ths.Close()
	tiny.Close()

	res.Seconds = clk.Now().Sub(start).Seconds()
	return res, nil
}

// PrintLoad renders the load experiment.
func PrintLoad(w io.Writer, r LoadResult) {
	fprintf(w, "Load experiment: %d agents x %d streams x %d values, mid-run server restart\n",
		r.Agents, r.Streams, r.Values)
	fprintf(w, "loss accounting: reference %d, ingested %d (+%d duplicate redeliveries), lost %d, zero_loss=%v\n",
		r.Reference, r.Ingested, r.Duplicates, r.Lost, r.ZeroLoss)
	fprintf(w, "outage traffic: %d detections spilled to disk, %d replayed after reconnect\n",
		r.Spilled, r.Replayed)
	if r.ShedPoint > 0 {
		fprintf(w, "shed point: burst %d saturated a workers=1 queue=1 server (ramp:", r.ShedPoint)
	} else {
		fprintf(w, "shed point: not reached by the ramp (ramp:")
	}
	for _, p := range r.Ramp {
		fprintf(w, " %d/%d", p.Shed, p.Burst)
	}
	fprintf(w, " shed/burst)\n")
	fprintf(w, "completed in %.2fs\n", r.Seconds)
}

// WriteLoadJSON writes the load experiment to path as indented JSON.
func WriteLoadJSON(path string, r LoadResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
