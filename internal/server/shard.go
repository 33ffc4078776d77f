package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"cabd"
	"cabd/internal/obs"
)

// The sharded stream registry. The old streamTable serialized every
// stream operation behind one table mutex plus one mutex per entry —
// under many concurrent streams the table lock was the bottleneck and a
// slow push held an entry lock across a full analysis. Here stream IDs
// map onto a fixed set of shards through a consistent-hash ring; each
// shard owns its streams outright and runs them on a dedicated goroutine
// fed by a bounded mailbox. No entry is ever locked: mutual exclusion is
// ownership. A full mailbox sheds the request with 429 instead of
// queueing unboundedly, matching the worker pool's admission discipline.
var (
	errStreamsFull       = errors.New("server saturated: stream cap reached")
	errStreamMailboxFull = errors.New("server saturated: stream shard mailbox full")
	errTenantQuota       = errors.New("tenant stream quota reached")
	errShardStopped      = errors.New("stream shard stopped")
)

// streamEntry is one live streaming detector, owned exclusively by its
// shard's goroutine — no mutex, by construction.
type streamEntry struct {
	id      string
	tenant  string
	created time.Time
	last    time.Time
	det     *cabd.StreamDetector
}

// shardCall is one unit of mailbox work. The shard goroutine runs fn and
// closes done; a panic inside fn is contained per call (the shard and
// its other streams survive) and surfaces through *pe.
type shardCall struct {
	fn   func(*streamShard)
	done chan struct{}
	pe   **cabd.PanicError
}

// streamShard owns a partition of the stream space.
type streamShard struct {
	idx     int
	reg     *streamRegistry
	mailbox chan shardCall
	stop    chan struct{} // closed by the registry to end the goroutine
	dead    chan struct{} // closed by the goroutine once it exits
	streams map[string]*streamEntry
}

// ringPoint is one virtual node on the consistent-hash ring.
type ringPoint struct {
	h     uint32
	shard int
}

// ringVnodes is the virtual-node multiplicity per shard — enough to
// spread IDs evenly at small shard counts.
const ringVnodes = 64

// streamRegistry is the sharded stream table.
type streamRegistry struct {
	srv    *Server
	shards []*streamShard
	ring   []ringPoint
	wg     sync.WaitGroup

	// Capacity accounting is global (the caps are server-wide), so it
	// lives outside the shards under its own mutex. Shards only touch it
	// on create/remove, never per observation.
	quotaMu sync.Mutex
	total   int
	tenants map[string]int

	stopOnce sync.Once
}

func newStreamRegistry(s *Server) *streamRegistry {
	r := &streamRegistry{srv: s, tenants: map[string]int{}}
	n := s.cfg.StreamShards
	for i := 0; i < n; i++ {
		sh := &streamShard{
			idx:     i,
			reg:     r,
			mailbox: make(chan shardCall, s.cfg.StreamMailbox),
			stop:    make(chan struct{}),
			dead:    make(chan struct{}),
			streams: map[string]*streamEntry{},
		}
		r.shards = append(r.shards, sh)
		for v := 0; v < ringVnodes; v++ {
			r.ring = append(r.ring, ringPoint{hashID(fmt.Sprintf("shard-%d-vnode-%d", i, v)), i})
		}
		r.wg.Add(1)
		go sh.loop()
	}
	sort.Slice(r.ring, func(a, b int) bool {
		if r.ring[a].h != r.ring[b].h {
			return r.ring[a].h < r.ring[b].h
		}
		return r.ring[a].shard < r.ring[b].shard
	})
	return r
}

func hashID(id string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return h.Sum32()
}

// shardFor maps a stream ID onto the ring: the first virtual node at or
// clockwise-after the ID's hash owns it.
func (r *streamRegistry) shardFor(id string) *streamShard {
	h := hashID(id)
	i := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].h >= h })
	if i == len(r.ring) {
		i = 0
	}
	return r.shards[r.ring[i].shard]
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

// loop is the shard goroutine: it services mailbox calls until stopped,
// then drains what was already admitted so no caller is left waiting.
func (sh *streamShard) loop() {
	defer sh.reg.wg.Done()
	defer close(sh.dead)
	for {
		select {
		case c := <-sh.mailbox:
			sh.handle(c)
		case <-sh.stop:
			for {
				select {
				case c := <-sh.mailbox:
					sh.handle(c)
				default:
					return
				}
			}
		}
	}
}

// handle runs one call with per-call panic containment: a crashing
// detector poisons its own call, not the shard or its other streams.
func (sh *streamShard) handle(c shardCall) {
	defer close(c.done)
	defer func() {
		if p := recover(); p != nil {
			sh.reg.srv.rec.Add(obs.CounterPanicsContained, 1)
			*c.pe = &cabd.PanicError{Series: -1, Value: p, Stack: debug.Stack()}
		}
	}()
	c.fn(sh)
}

// submit parks fn in the shard's mailbox and waits for it to run.
// blocking selects admission semantics: handlers use false (full mailbox
// sheds immediately), registry-internal sweeps use true (they must not
// be starved by a busy mailbox, and the consumer is guaranteed live
// until the registry stops).
func (sh *streamShard) submit(fn func(*streamShard), blocking bool) error {
	var pe *cabd.PanicError
	c := shardCall{fn: fn, done: make(chan struct{}), pe: &pe}
	if blocking {
		select {
		case sh.mailbox <- c:
		case <-sh.dead:
			return errShardStopped
		}
	} else {
		select {
		case sh.mailbox <- c:
		default:
			sh.reg.srv.rec.Add(obs.CounterHTTPShed, 1)
			return errStreamMailboxFull
		}
	}
	select {
	case <-c.done:
	case <-sh.dead:
		// The shard exited; its drain pass services everything already
		// admitted, so done is either closed or never will be.
		select {
		case <-c.done:
		default:
			return errShardStopped
		}
	}
	if pe != nil {
		return pe
	}
	return nil
}

// reserve claims one stream slot for tenant against the global and
// per-tenant caps.
func (r *streamRegistry) reserve(tenant string) error {
	r.quotaMu.Lock()
	defer r.quotaMu.Unlock()
	if r.total >= r.srv.cfg.MaxStreams {
		return errStreamsFull
	}
	if q := r.srv.cfg.MaxStreamsPerTenant; q > 0 && r.tenants[tenant] >= q {
		return fmt.Errorf("%w: tenant %q at %d streams", errTenantQuota, tenant, q)
	}
	r.total++
	r.tenants[tenant]++
	r.srv.rec.SetGauge(obs.GaugeStreamsActive, int64(r.total))
	return nil
}

// release returns count slots for tenant.
func (r *streamRegistry) release(tenant string, count int) {
	if count == 0 {
		return
	}
	r.quotaMu.Lock()
	defer r.quotaMu.Unlock()
	r.total -= count
	if r.tenants[tenant] -= count; r.tenants[tenant] <= 0 {
		delete(r.tenants, tenant)
	}
	r.srv.rec.SetGauge(obs.GaugeStreamsActive, int64(r.total))
}

// pushResult is the outcome of one ingest batch.
type pushResult struct {
	accepted   int
	total, bad int
	dets       []cabd.StreamDetection
}

// push feeds values into stream id (creating it on first use) on the
// owning shard.
func (r *streamRegistry) push(id string, values []float64, now time.Time) (pushResult, error) {
	var out pushResult
	var failed error
	err := r.shardFor(id).submit(func(sh *streamShard) {
		e := sh.streams[id]
		if e == nil {
			tenant := tenantOf(id)
			if err := r.reserve(tenant); err != nil {
				// Both capacity refusals answer 429, so both count as sheds.
				if errors.Is(err, errStreamsFull) || errors.Is(err, errTenantQuota) {
					r.srv.rec.Add(obs.CounterHTTPShed, 1)
				}
				failed = err
				return
			}
			opts := r.srv.cfg.Options
			opts.Obs = r.srv.rec
			e = &streamEntry{
				id:      id,
				tenant:  tenant,
				created: now,
				det: cabd.NewStream(cabd.StreamConfig{
					BadValue:   opts.Sanitize,
					HopTimeout: r.srv.cfg.StreamHopTimeout,
					Options:    opts,
				}),
			}
			sh.streams[id] = e
		}
		for _, v := range values {
			out.dets = append(out.dets, e.det.Push(v)...)
		}
		e.last = now
		out.accepted = len(values)
		out.total, out.bad = e.det.Total(), e.det.Bad()
	}, false)
	if err != nil {
		return out, err
	}
	return out, failed
}

// errStreamNotFound distinguishes a missing stream from shed/stop.
var errStreamNotFound = errors.New("stream not found")

// close flushes stream id (final analysis, no trailing margin), removes
// it and returns the tail detections.
func (r *streamRegistry) close(id string) (pushResult, error) {
	var out pushResult
	var failed error
	err := r.shardFor(id).submit(func(sh *streamShard) {
		e := sh.streams[id]
		if e == nil {
			failed = errStreamNotFound
			return
		}
		delete(sh.streams, id)
		r.release(e.tenant, 1)
		out.dets = e.det.Flush()
		out.total, out.bad = e.det.Total(), e.det.Bad()
	}, false)
	if err != nil {
		return out, err
	}
	return out, failed
}

// evictIdle reclaims streams idle past ttl. Shards sweep in index order
// and evictions inside a shard run in id order, so logs and counters are
// deterministic for a given state.
func (r *streamRegistry) evictIdle(now time.Time, ttl time.Duration) {
	for _, sh := range r.shards {
		_ = sh.submit(func(sh *streamShard) {
			var expired []*streamEntry
			for _, e := range sh.streams {
				if now.Sub(e.last) > ttl {
					expired = append(expired, e)
				}
			}
			sort.Slice(expired, func(a, b int) bool { return expired[a].id < expired[b].id })
			for _, e := range expired {
				delete(sh.streams, e.id)
				r.release(e.tenant, 1)
				r.srv.rec.Add(obs.CounterIdleEvictions, 1)
				r.srv.logf("cabd-serve: stream %s evicted after idle timeout (age %s, idle %s)",
					e.id, now.Sub(e.created), now.Sub(e.last))
			}
		}, true)
	}
}

// closeAll empties every shard and stops the shard goroutines (drain
// path). The registry is unusable afterwards.
func (r *streamRegistry) closeAll() {
	for _, sh := range r.shards {
		_ = sh.submit(func(sh *streamShard) {
			var ids []string
			for id := range sh.streams {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				r.release(sh.streams[id].tenant, 1)
			}
			sh.streams = map[string]*streamEntry{}
		}, true)
	}
	// Idempotent: a deferred Close after an explicit Drain re-runs the
	// (now trivially empty) clearing pass but stops the shards once.
	r.stopOnce.Do(func() {
		for _, sh := range r.shards {
			close(sh.stop)
		}
		r.wg.Wait()
	})
	r.srv.rec.SetGauge(obs.GaugeStreamsActive, 0)
}
