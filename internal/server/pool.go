package server

import (
	"context"
	"errors"
	"sync"

	"cabd/internal/obs"
)

// errSaturated is the backpressure signal: QueueDepth callers already
// wait for a worker slot, so the request must be shed (429 +
// Retry-After) rather than parked unboundedly.
var errSaturated = errors.New("server saturated: worker queue full")

// pool is the server's one budget for detector work: a counting
// semaphore of Workers slots. Every detector computation — a detect, a
// batch, a stream push or close, each session round — holds a slot
// while it runs on its caller's goroutine, so at most Workers of them
// run at once whichever path they came in on.
type pool struct {
	rec     *obs.Recorder
	workers int
	depth   int
	slots   chan struct{} // a semaphore: one token per held slot

	mu      sync.Mutex
	waiting int // callers parked in acquire, on every path
}

func newPool(workers, depth int, rec *obs.Recorder) *pool {
	return &pool{rec: rec, workers: workers, depth: depth, slots: make(chan struct{}, workers)}
}

// acquire takes a slot, waiting for one if all are held. A request
// (shed true) gets errSaturated instead once QueueDepth callers already
// wait; a session (shed false) always waits, because MaxSessions has
// already admitted it. If ctx ends first, acquire returns ctx's error
// and holds no slot. Every nil return must be paired with one release.
func (p *pool) acquire(ctx context.Context, shed bool) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	default:
	}
	p.mu.Lock()
	if shed && p.waiting >= p.depth {
		p.mu.Unlock()
		return errSaturated
	}
	p.queue(1)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.queue(-1)
		p.mu.Unlock()
	}()
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queue moves the waiting count by delta and publishes it as the
// queue_depth gauge. p.mu must be held.
func (p *pool) queue(delta int) {
	p.waiting += delta
	p.rec.SetGauge(obs.GaugeQueueDepth, int64(p.waiting))
}

// release gives back a slot taken by acquire.
func (p *pool) release() { <-p.slots }

// run holds a slot (shedding as a request) while f runs on the
// caller's goroutine. A panic in f still gives the slot back.
func (p *pool) run(ctx context.Context, f func()) error {
	if err := p.acquire(ctx, true); err != nil {
		return err
	}
	defer p.release()
	f()
	return nil
}

// retryAfterSeconds estimates how long a shed client should back off:
// one queue's worth of work per worker, floored at one second. The
// estimate is deliberately coarse — its job is to spread retries, not
// to predict latency.
func (p *pool) retryAfterSeconds() int {
	p.mu.Lock()
	depth := p.waiting
	p.mu.Unlock()
	sec := depth / p.workers
	if sec < 1 {
		sec = 1
	}
	return sec
}
