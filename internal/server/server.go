// Package server is the HTTP serving layer of cabd: the production
// deployment mode the paper's prototype sketches, exposed as a JSON API
// (see cabd/httpapi for the wire contract and cmd/cabd-serve for the
// binary).
//
// Three request families share one server:
//
//   - one-shot detection (POST /v1/detect, /v1/detect/batch);
//   - streaming ingest (POST /v1/stream/{id}, NDJSON observations),
//     backed by per-id StreamDetector instances with idle eviction;
//   - interactive labeling sessions (/v1/sessions...), the paper's
//     user-driven active-learning loop over HTTP: the pipeline runs in
//     a server-side goroutine, parks on a channel-backed labeler, and
//     surfaces the uncertainty-sampled candidate it wants labeled until
//     every candidate clears the confidence γ.
//
// All three share one budget: every detector computation (a detect, a
// stream push or close, a session round) holds one of Workers pool
// slots while it runs, and a request sheds with 429 + Retry-After once
// QueueDepth callers already wait, instead of queueing unboundedly.
//
// All time is read through the injectable obs.Clock of the server's
// recorder, so handler tests pin latencies, evictions and deadline
// degradation with a FakeClock instead of sleeping.
package server

import (
	"context"
	"net/http"
	"sync"
	"time"

	"cabd"
	"cabd/internal/obs"
)

// Config parameterizes a Server. Zero-valued fields take defaults.
type Config struct {
	// Options is the base detector configuration; per-request options
	// overlay it. Options.Obs is overwritten with the server's recorder.
	Options cabd.Options

	// Workers is the number of detector computations that run at once
	// (default 4). A detect or batch request, a stream push or close,
	// and each round of an interactive session holds one slot while it
	// computes; a session gives its slot back while it waits for a
	// label.
	Workers int
	// QueueDepth bounds the callers waiting for a slot: once that many
	// wait, the next detect, batch, stream push or close sheds with 429
	// (default 64). Session rounds count as waiting but never shed,
	// since MaxSessions has already admitted the session.
	QueueDepth int
	// MaxBodyBytes caps every request body (default 8 MiB).
	MaxBodyBytes int64

	// DefaultTimeout is the per-request detection deadline when the
	// request does not set one (default 30s). MaxTimeout clamps
	// client-supplied deadlines (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// MaxSessions / MaxStreams cap the live interactive sessions and
	// streaming detectors; at the cap, creation sheds with 429
	// (defaults 64 and 256).
	MaxSessions int
	MaxStreams  int
	// MaxStreamsPerTenant additionally caps the streams of one tenant —
	// the stream-id prefix before the first '/' ("acme/sensor-17" →
	// "acme"), or the whole id for unscoped names. Zero disables the
	// per-tenant quota.
	MaxStreamsPerTenant int
	// StreamHopTimeout bounds one streaming analysis (zero: unbounded).
	StreamHopTimeout time.Duration
	// SessionTTL / StreamTTL are the idle-eviction horizons: a session
	// or stream untouched for longer is reclaimed by the janitor
	// (default 10m each).
	SessionTTL time.Duration
	StreamTTL  time.Duration
	// JanitorEvery is the eviction sweep period (default 30s; negative
	// disables the background janitor — tests drive sweeps directly).
	JanitorEvery time.Duration

	// CheckpointDir, when non-empty, makes the server crash-safe: the
	// ingest store journals accepted detections there (NDJSON, replayed
	// on startup) and every interactive session checkpoints its request,
	// delivered labels and terminal result there (session-<id>.json,
	// atomic writes). New restores both on boot, so a restarted server
	// resumes active-learning sessions — the deterministic pipeline
	// replays recorded labels and converges to the same verdict — and
	// still deduplicates agent redeliveries from before the crash.
	CheckpointDir string
	// Logf receives operational log lines (evictions with session age,
	// checkpoint failures). Nil discards them.
	Logf func(format string, args ...any)

	// Recorder receives the server's metrics (request spans into the
	// http_request stage histogram, queue depth, shed/eviction/label
	// counters) on top of the detection pipeline's own instrumentation.
	// Nil installs a fresh wall-clock recorder; inject one built on an
	// obs.FakeClock to pin timings in tests.
	Recorder *obs.Recorder
	// ExpvarName, when non-empty, publishes the recorder's snapshot
	// under this name in the process-wide expvar registry (served at
	// /debug/vars). Publishing is best-effort: a duplicate name is
	// ignored so many servers can share a process.
	ExpvarName string
}

func (c Config) defaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxStreams <= 0 {
		c.MaxStreams = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.StreamTTL <= 0 {
		c.StreamTTL = 10 * time.Minute
	}
	if c.JanitorEvery == 0 {
		c.JanitorEvery = 30 * time.Second
	}
	if c.Recorder == nil {
		c.Recorder = obs.New()
	}
	return c
}

// Server is one serving instance: a worker pool, a stream table, a
// session table and the HTTP handler tree over them.
type Server struct {
	cfg   Config
	rec   *obs.Recorder
	clock obs.Clock
	pool  *pool
	mux   *http.ServeMux

	streams  *streamRegistry
	sessions *sessionTable
	ingest   *ingestStore

	mu       sync.Mutex
	draining bool

	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
}

// New returns a ready-to-serve Server. With a CheckpointDir it first
// restores persisted state — the ingest journal and every checkpointed
// session — and fails rather than serve over state it could not read.
// Call Close (or Drain) when done to stop the janitor and the session
// goroutines.
func New(cfg Config) (*Server, error) {
	cfg = cfg.defaults()
	s := &Server{
		cfg:   cfg,
		rec:   cfg.Recorder,
		clock: cfg.Recorder.Clock(),
	}
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.rec)
	s.streams = newStreamRegistry(s)
	s.sessions = newSessionTable(s)
	ing, err := newIngestStore(cfg.CheckpointDir)
	if err != nil {
		return nil, err
	}
	s.ingest = ing
	if cfg.CheckpointDir != "" {
		if err := s.sessions.restore(cfg.CheckpointDir); err != nil {
			s.ingest.close()
			return nil, err
		}
	}
	s.mux = s.routes()
	if cfg.ExpvarName != "" {
		// Best effort: a second server reusing the name keeps serving,
		// just without its own expvar entry.
		_ = s.rec.PublishExpvar(cfg.ExpvarName)
	}
	if cfg.JanitorEvery > 0 {
		s.janitorStop = make(chan struct{})
		s.janitorWG.Add(1)
		go s.janitor(cfg.JanitorEvery)
	}
	return s, nil
}

// logf forwards to the configured operational logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Recorder returns the server's metrics recorder.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Handler returns the server's HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// routes builds the endpoint table. Every handler runs behind wrap
// (request counter, latency span, panic containment).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/detect", s.wrap(s.handleDetect))
	mux.HandleFunc("POST /v1/detect/batch", s.wrap(s.handleDetectBatch))
	mux.HandleFunc("POST /v1/detect/multi", s.wrap(s.handleDetectMulti))
	mux.HandleFunc("POST /v1/stream/{id}", s.wrap(s.handleStreamPush))
	mux.HandleFunc("DELETE /v1/stream/{id}", s.wrap(s.handleStreamClose))
	mux.HandleFunc("POST /v1/sessions", s.wrap(s.handleSessionCreate))
	mux.HandleFunc("GET /v1/sessions", s.wrap(s.handleSessionList))
	mux.HandleFunc("GET /v1/sessions/{id}", s.wrap(s.handleSessionGet))
	mux.HandleFunc("GET /v1/sessions/{id}/pending", s.wrap(s.handleSessionGet))
	mux.HandleFunc("POST /v1/sessions/{id}/labels", s.wrap(s.handleSessionLabel))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.wrap(s.handleSessionCancel))
	mux.HandleFunc("POST /v1/ingest", s.wrap(s.handleIngest))
	mux.HandleFunc("GET /v1/ingest", s.wrap(s.handleIngestStats))
	mux.HandleFunc("GET /healthz", s.wrap(s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.wrap(s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.wrap(s.handleMetrics))
	mux.Handle("GET /debug/vars", http.DefaultServeMux)
	return mux
}

// Draining reports whether the server has begun shutting down; /readyz
// answers 503 and new work is refused while it is set.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) setDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain gracefully shuts the server down: mark not-ready, stop the
// janitor, cancel every live session, drop every stream without
// flushing it, and wait — bounded by ctx — for the session goroutines
// to finish before closing the ingest journal. Detector work runs on
// request goroutines, so the HTTP listener must already have stopped
// accepting and finished its in-flight requests (e.g.
// http.Server.Shutdown): no new work races the drain.
func (s *Server) Drain(ctx context.Context) error {
	s.setDraining()
	if s.janitorStop != nil {
		close(s.janitorStop)
		s.janitorWG.Wait()
		s.janitorStop = nil
	}
	s.sessions.cancelAll()
	s.streams.closeAll()
	done := make(chan struct{})
	go func() {
		s.sessions.wait()
		s.ingest.close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Drain with no deadline, for tests and defer.
func (s *Server) Close() { _ = s.Drain(context.Background()) }

// janitor periodically evicts idle streams and sessions. The ticker's
// period is wall time (a janitor owns its cadence like a main package
// owns its process), but idleness itself is judged against the
// injectable clock, so eviction tests advance a FakeClock and call
// sweep directly instead of sleeping.
func (s *Server) janitor(every time.Duration) {
	defer s.janitorWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sweep()
		case <-s.janitorStop:
			return
		}
	}
}

// sweep evicts every stream and session idle past its TTL.
func (s *Server) sweep() {
	now := s.clock.Now()
	s.streams.evictIdle(now, s.cfg.StreamTTL)
	s.sessions.evictIdle(now, s.cfg.SessionTTL)
}

// optionsFor resolves the per-request option set: base options overlaid
// with the request's DetectOptions, recorder always attached.
func (s *Server) optionsFor(o *detectOptions) cabd.Options {
	opts := s.cfg.Options
	opts.Obs = s.rec
	if o != nil {
		if o.hasSanitize {
			opts.Sanitize = o.sanitize
		}
		if o.hasStrategy {
			opts.Strategy = o.strategy
		}
		if o.confidence > 0 {
			opts.Confidence = o.confidence
		}
		if o.maxQueries > 0 {
			opts.MaxQueries = o.maxQueries
		}
		if o.seed != 0 {
			opts.Seed = o.seed
		}
	}
	return opts
}

// detectorFor builds the per-request univariate detector.
func (s *Server) detectorFor(o *detectOptions) *cabd.Detector {
	return cabd.New(s.optionsFor(o))
}

// multiDetectorFor builds the per-request detector over channels: one
// channel is a univariate series, more a multivariate one.
func (s *Server) multiDetectorFor(o *detectOptions) *cabd.MultiDetector {
	return cabd.NewMulti(s.optionsFor(o))
}

// requestContext derives the detection context: the request deadline is
// computed on the server's clock (so FakeClock tests steer the
// detector's deadline-degradation pilot deterministically) and clamped
// to MaxTimeout.
func (s *Server) requestContext(r *http.Request, o *detectOptions) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if o != nil && o.timeout > 0 {
		timeout = o.timeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return context.WithDeadline(r.Context(), s.clock.Now().Add(timeout))
}
