package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cabd"
	"cabd/internal/obs"
)

// The stream registry: a map from stream id to its detector. The table
// mutex guards only the map and the stream counts; each entry has its
// own mutex, held only around one Push or Flush, so pushes to one
// stream stay serialized while pushes to different streams run side by
// side, each on its own request goroutine under a pool slot.
var (
	errStreamsFull    = errors.New("server saturated: stream cap reached")
	errTenantQuota    = errors.New("tenant stream quota reached")
	errStreamNotFound = errors.New("stream not found")
)

// streamEntry is one live streaming detector.
type streamEntry struct {
	id      string
	tenant  string
	created time.Time
	det     *cabd.StreamDetector

	mu   sync.Mutex // held only around Push or Flush
	last time.Time  // guarded by mu
	// gone marks an entry that close or eviction has taken out of the
	// table; guarded by mu. A push that finds it set looks the id up
	// again rather than feed a detector nobody can reach.
	gone bool
}

// streamRegistry is the stream table.
type streamRegistry struct {
	srv *Server

	mu      sync.Mutex
	streams map[string]*streamEntry
	total   int
	tenants map[string]int
}

func newStreamRegistry(s *Server) *streamRegistry {
	return &streamRegistry{srv: s, streams: map[string]*streamEntry{}, tenants: map[string]int{}}
}

// tenantOf derives the quota key: the ID prefix before the first '/'
// ("acme/sensor-17" → "acme"), or the whole ID for unscoped names.
func tenantOf(id string) string {
	for i := 0; i < len(id); i++ {
		if id[i] == '/' {
			return id[:i]
		}
	}
	return id
}

// pushResult is the outcome of one ingest batch.
type pushResult struct {
	accepted   int
	total, bad int
	dets       []cabd.StreamDetection
}

// push feeds values into stream id, creating it on first use. It holds
// a pool slot for the whole push, taken before the stream's lock so no
// caller waits for a slot while holding a stream.
func (r *streamRegistry) push(ctx context.Context, id string, values []float64, now time.Time) (pushResult, error) {
	if err := r.srv.pool.acquire(ctx, true); err != nil {
		return pushResult{}, err
	}
	defer r.srv.pool.release()
	for {
		e, err := r.entry(id, now)
		if err != nil {
			return pushResult{}, err
		}
		if out, ok := e.push(values, now); ok {
			return out, nil
		}
	}
}

// entry returns stream id, creating it within the global and
// per-tenant caps.
func (r *streamRegistry) entry(id string, now time.Time) (*streamEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.streams[id]; e != nil {
		return e, nil
	}
	tenant := tenantOf(id)
	if r.total >= r.srv.cfg.MaxStreams {
		return nil, errStreamsFull
	}
	if q := r.srv.cfg.MaxStreamsPerTenant; q > 0 && r.tenants[tenant] >= q {
		return nil, fmt.Errorf("%w: tenant %q at %d streams", errTenantQuota, tenant, q)
	}
	opts := r.srv.cfg.Options
	opts.Obs = r.srv.rec
	e := &streamEntry{
		id:      id,
		tenant:  tenant,
		created: now,
		last:    now,
		det: cabd.NewStream(cabd.StreamConfig{
			BadValue:   opts.Sanitize,
			HopTimeout: r.srv.cfg.StreamHopTimeout,
			Options:    opts,
		}),
	}
	r.streams[id] = e
	r.total++
	r.tenants[tenant]++
	r.srv.rec.SetGauge(obs.GaugeStreamsActive, int64(r.total))
	return e, nil
}

// forget takes e out of the table and returns its stream slot. r.mu
// must be held.
func (r *streamRegistry) forget(e *streamEntry) {
	delete(r.streams, e.id)
	r.total--
	if r.tenants[e.tenant]--; r.tenants[e.tenant] <= 0 {
		delete(r.tenants, e.tenant)
	}
	r.srv.rec.SetGauge(obs.GaugeStreamsActive, int64(r.total))
}

// push feeds values into e under its lock, and reports false without
// touching the detector when e is gone.
func (e *streamEntry) push(values []float64, now time.Time) (pushResult, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gone {
		return pushResult{}, false
	}
	var out pushResult
	for _, v := range values {
		out.dets = append(out.dets, e.det.Push(v)...)
	}
	e.last = now
	out.accepted = len(values)
	out.total, out.bad = e.det.Total(), e.det.Bad()
	return out, true
}

// close takes stream id out of the table, flushes it (final analysis,
// no trailing margin) and returns the tail detections.
func (r *streamRegistry) close(ctx context.Context, id string) (pushResult, error) {
	if err := r.srv.pool.acquire(ctx, true); err != nil {
		return pushResult{}, err
	}
	defer r.srv.pool.release()
	r.mu.Lock()
	e := r.streams[id]
	if e != nil {
		r.forget(e)
	}
	r.mu.Unlock()
	if e == nil {
		return pushResult{}, errStreamNotFound
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gone = true
	return pushResult{dets: e.det.Flush(), total: e.det.Total(), bad: e.det.Bad()}, nil
}

// evictIdle reclaims streams idle past ttl. A stream whose lock is busy
// is mid-push, so not idle: TryLock skips it and the table lock never
// waits on a hop. Evictions count and log in id order, so logs and
// counters are deterministic for a given state.
func (r *streamRegistry) evictIdle(now time.Time, ttl time.Duration) {
	type eviction struct {
		id        string
		age, idle time.Duration
	}
	var evicted []eviction
	r.mu.Lock()
	for _, e := range r.streams {
		if !e.mu.TryLock() {
			continue
		}
		if idle := now.Sub(e.last); idle > ttl {
			e.gone = true
			r.forget(e)
			evicted = append(evicted, eviction{e.id, now.Sub(e.created), idle})
		}
		e.mu.Unlock()
	}
	r.mu.Unlock()
	sort.Slice(evicted, func(a, b int) bool { return evicted[a].id < evicted[b].id })
	for _, ev := range evicted {
		r.srv.rec.Add(obs.CounterIdleEvictions, 1)
		r.srv.logf("cabd-serve: stream %s evicted after idle timeout (age %s, idle %s)",
			ev.id, ev.age, ev.idle)
	}
}

// closeAll drops every stream without flushing it (drain path).
func (r *streamRegistry) closeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streams = map[string]*streamEntry{}
	r.tenants = map[string]int{}
	r.total = 0
	r.srv.rec.SetGauge(obs.GaugeStreamsActive, 0)
}
