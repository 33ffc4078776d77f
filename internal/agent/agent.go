package agent

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cabd"
	"cabd/client"
	"cabd/httpapi"
	"cabd/internal/dataio"
	"cabd/internal/obs"
)

// Agent is one collector instance. All methods including Run are
// single-threaded by design (guarded by mu so a SIGHUP Reload from the
// signal goroutine is the only concurrency); the progress invariant is
// that a detection is always in exactly one of three places — acked by
// the server, in the spill buffer, or re-derivable from the checkpoint.
type Agent struct {
	mu    sync.Mutex
	cfg   Config
	cl    *client.Client
	rec   *obs.Recorder
	sleep obs.SleepFunc

	streams map[string]*cabd.StreamDetector
	offsets map[string]int64
	queue   []httpapi.ForwardedDetection
	spill   *spill // nil when StateDir is empty
}

// checkpoint is the agent's durable state (agent.json in StateDir):
// how far into each source it has read and each stream detector's
// snapshot. It is written only AFTER the poll's detections were either
// acknowledged or spilled, so a crash between detection and checkpoint
// re-reads the same bytes, re-derives the same detections with the
// same idempotency keys, and the server's dedup absorbs the replay —
// at-least-once without a write-ahead log.
type checkpoint struct {
	Offsets map[string]int64            `json:"offsets"`
	Streams map[string]cabd.StreamState `json:"streams"`
}

// New builds an Agent, restoring its checkpoint and spill buffer from
// StateDir when present.
func New(cfg Config) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:     cfg,
		rec:     cfg.Recorder,
		sleep:   cfg.Sleep,
		streams: map[string]*cabd.StreamDetector{},
		offsets: map[string]int64{},
	}
	if a.rec == nil {
		a.rec = obs.New()
	}
	if a.sleep == nil {
		a.sleep = obs.Sleep
	}
	// Every retry pause inside the client is one counted retry; routing
	// the policy's sleep through the agent keeps the whole process on
	// the injectable clock.
	retrySleep := func(ctx context.Context, d time.Duration) error {
		a.rec.Add(obs.CounterAgentRetries, 1)
		return a.sleep(ctx, d)
	}
	a.cl = client.New(cfg.Server, client.WithRetry(client.RetryPolicy{
		Backoff:     cfg.Backoff,
		MaxAttempts: cfg.MaxAttempts,
		Sleep:       retrySleep,
	}))
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("state dir: %w", err)
		}
		sp, err := openSpill(filepath.Join(cfg.StateDir, "spill"), cfg.SpillMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("open spill: %w", err)
		}
		a.spill = sp
		if err := a.loadCheckpoint(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// streamConfig builds the per-stream detector configuration.
func (a *Agent) streamConfig() cabd.StreamConfig {
	return cabd.StreamConfig{
		Window:  a.cfg.Window,
		Hop:     a.cfg.Hop,
		Margin:  a.cfg.Margin,
		Options: cabd.Options{Seed: a.cfg.Seed},
	}
}

func (a *Agent) checkpointPath() string {
	return filepath.Join(a.cfg.StateDir, "agent.json")
}

// loadCheckpoint restores offsets and stream detectors.
func (a *Agent) loadCheckpoint() error {
	data, err := os.ReadFile(a.checkpointPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("load checkpoint %s: %w", a.checkpointPath(), err)
	}
	if cp.Offsets != nil {
		a.offsets = cp.Offsets
	}
	for name, st := range cp.Streams {
		a.streams[name] = cabd.ResumeStream(a.streamConfig(), st)
	}
	return nil
}

// saveCheckpoint persists offsets + stream snapshots atomically.
func (a *Agent) saveCheckpoint() error {
	if a.cfg.StateDir == "" {
		return nil
	}
	cp := checkpoint{Offsets: a.offsets, Streams: map[string]cabd.StreamState{}}
	for name, det := range a.streams {
		cp.Streams[name] = det.State()
	}
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	return dataio.WriteFileAtomic(a.checkpointPath(), data)
}

// PollOnce runs one full collect→forward→checkpoint cycle: tail every
// source past its offset, push new values through the per-stream
// detectors, enqueue confirmed detections, flush (replaying any spill
// first), then checkpoint. Exported so tests and the load experiment
// drive cycles deterministically without the Run loop's pacing.
func (a *Agent) PollOnce(ctx context.Context) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pollLocked(ctx)
}

func (a *Agent) pollLocked(ctx context.Context) error {
	if err := a.collectLocked(); err != nil {
		return err
	}
	safe := a.flushLocked(ctx)
	if !safe {
		// Detections are sitting only in memory (spill unavailable or
		// failed): checkpointing offsets now would strand them across a
		// crash. Skip; next cycle re-reads nothing new but retries the
		// flush, and the checkpoint resumes once the data is safe.
		return nil
	}
	if err := a.saveCheckpoint(); err != nil {
		a.logf("cabd-agent: checkpoint: %v", err)
	}
	return nil
}

// collectLocked tails the sources and turns new values into queued
// detections.
func (a *Agent) collectLocked() error {
	paths, err := scanSources(a.cfg.SourceDir)
	if err != nil {
		return fmt.Errorf("scan sources: %w", err)
	}
	for _, path := range paths {
		name := streamName(path)
		vals, newOff, err := readNewValues(path, a.offsets[path])
		if err != nil {
			a.logf("cabd-agent: tail %s: %v", path, err)
			continue
		}
		if len(vals) == 0 {
			a.offsets[path] = newOff
			continue
		}
		det := a.streams[name]
		if det == nil {
			det = cabd.NewStream(a.streamConfig())
			a.streams[name] = det
		}
		for _, v := range vals {
			for _, d := range det.Push(v) {
				a.queue = append(a.queue, httpapi.ForwardedDetection{
					Key:        detectionKey(a.cfg.Name, name, d.Index),
					Stream:     name,
					Index:      d.Index,
					Subtype:    d.Subtype.String(),
					Confidence: d.Confidence,
				})
			}
		}
		a.offsets[path] = newOff
	}
	return nil
}

// flushLocked moves every pending detection toward the server: spilled
// segments replay first (order preservation), then the in-memory queue
// goes out in batches. Any failure spills the remaining queue to disk.
// It reports whether all detections ended up safe (acked or on disk) —
// false means some are only in memory and the checkpoint must wait.
func (a *Agent) flushLocked(ctx context.Context) (safe bool) {
	send := func(dets []httpapi.ForwardedDetection) error {
		resp, err := a.cl.Ingest(ctx, httpapi.IngestRequest{Agent: a.cfg.Name, Detections: dets})
		if err != nil {
			return err
		}
		a.rec.Add(obs.CounterAgentForwarded, int64(resp.Accepted))
		return nil
	}

	if a.spill != nil && a.spill.pending() > 0 {
		replayed, err := a.spill.replay(send)
		if replayed > 0 {
			a.rec.Add(obs.CounterAgentReplayed, int64(replayed))
		}
		if err != nil {
			a.logf("cabd-agent: spill replay stopped: %v", err)
			return a.spillQueueLocked()
		}
	}
	for len(a.queue) > 0 {
		n := a.cfg.BatchSize
		if n > len(a.queue) {
			n = len(a.queue)
		}
		if err := send(a.queue[:n]); err != nil {
			a.logf("cabd-agent: forward %d detections: %v", n, err)
			return a.spillQueueLocked()
		}
		a.queue = a.queue[n:]
	}
	return true
}

// spillQueueLocked pushes the whole in-memory queue into the spill
// buffer, reporting whether the detections are now safe on disk.
func (a *Agent) spillQueueLocked() bool {
	if len(a.queue) == 0 {
		return true
	}
	if a.spill == nil {
		return false // no StateDir: queue can only wait in memory
	}
	dropped, err := a.spill.add(a.queue)
	if err != nil {
		a.logf("cabd-agent: spill %d detections: %v", len(a.queue), err)
		return false
	}
	a.rec.Add(obs.CounterAgentSpilled, int64(len(a.queue)))
	if dropped > 0 {
		a.rec.Add(obs.CounterAgentSpillDropped, int64(dropped))
		a.logf("cabd-agent: spill cap exceeded, dropped %d oldest detections", dropped)
	}
	a.queue = nil
	return true
}

// Run polls until ctx is cancelled, then performs a final offline
// drain: whatever is still pending spills to disk and the checkpoint is
// written, so a SIGTERM loses nothing — the next boot replays the
// spill. The error is ctx's cause only when the drain also failed to
// make the data safe.
func (a *Agent) Run(ctx context.Context) error {
	for {
		if err := a.PollOnce(ctx); err != nil {
			a.logf("cabd-agent: poll: %v", err)
		}
		if err := a.sleep(ctx, a.pollEvery()); err != nil {
			break
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Offline drain: no network (the context is dead), just disk.
	if !a.spillQueueLocked() && len(a.queue) > 0 {
		return fmt.Errorf("shutdown with %d detections stranded in memory", len(a.queue))
	}
	if err := a.saveCheckpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	return nil
}

// Reload applies a hot configuration update (SIGHUP): pacing, batching,
// spill cap and retry shape change in place; identity fields — name,
// server, directories, detector shape — are ignored with a log line,
// because changing them safely means restarting (they anchor
// idempotency keys, checkpoints and on-disk state).
func (a *Agent) Reload(cfg Config) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ig := range []struct{ field, old, new string }{
		{"name", a.cfg.Name, cfg.Name},
		{"server", a.cfg.Server, cfg.Server},
		{"source-dir", a.cfg.SourceDir, cfg.SourceDir},
		{"state-dir", a.cfg.StateDir, cfg.StateDir},
	} {
		if ig.old != ig.new {
			a.logf("cabd-agent: reload: %s change (%q -> %q) ignored; restart to apply", ig.field, ig.old, ig.new)
		}
	}
	if cfg.Window != a.cfg.Window || cfg.Hop != a.cfg.Hop || cfg.Margin != a.cfg.Margin || cfg.Seed != a.cfg.Seed {
		a.logf("cabd-agent: reload: detector shape change ignored; restart to apply")
	}
	a.cfg.PollEvery = cfg.PollEvery
	a.cfg.BatchSize = cfg.BatchSize
	a.cfg.SpillMaxBytes = cfg.SpillMaxBytes
	if a.spill != nil {
		a.spill.max = cfg.SpillMaxBytes
	}
	if cfg.Backoff != a.cfg.Backoff || cfg.MaxAttempts != a.cfg.MaxAttempts {
		a.cfg.Backoff = cfg.Backoff
		a.cfg.MaxAttempts = cfg.MaxAttempts
		retrySleep := func(ctx context.Context, d time.Duration) error {
			a.rec.Add(obs.CounterAgentRetries, 1)
			return a.sleep(ctx, d)
		}
		a.cl = client.New(a.cfg.Server, client.WithRetry(client.RetryPolicy{
			Backoff:     a.cfg.Backoff,
			MaxAttempts: a.cfg.MaxAttempts,
			Sleep:       retrySleep,
		}))
	}
	a.logf("cabd-agent: reload applied (poll-every %v, batch-size %d, spill cap %d bytes)",
		a.cfg.PollEvery, a.cfg.BatchSize, a.cfg.SpillMaxBytes)
}

// Pending reports the detections not yet acknowledged by the server:
// the in-memory queue plus the spill buffer.
func (a *Agent) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.queue)
	if a.spill != nil {
		n += a.spill.pending()
	}
	return n
}

func (a *Agent) pollEvery() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.PollEvery
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}
