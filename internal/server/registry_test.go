package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cabd/client"
	"cabd/httpapi"
	"cabd/internal/obs"
	"cabd/internal/synth"
)

// registryServer builds a Server (janitor off) for direct registry
// tests and tears it down with the test.
func registryServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.JanitorEvery = -1
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewWithClock(obs.NewFakeClock(time.Unix(0, 0)))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// serveHTTP puts s behind a loopback listener for the test's lifetime.
func serveHTTP(t *testing.T, s *Server) *client.Client {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTenantOf(t *testing.T) {
	cases := map[string]string{
		"acme/sensor-17": "acme",
		"acme/a/b":       "acme",
		"bare":           "bare",
		"/rooted":        "",
		"":               "",
	}
	for id, want := range cases {
		if got := tenantOf(id); got != want {
			t.Errorf("tenantOf(%q) = %q, want %q", id, got, want)
		}
	}
}

// TestTenantQuota: one tenant saturating its quota sheds without
// touching other tenants or the global cap.
func TestTenantQuota(t *testing.T) {
	s := registryServer(t, Config{MaxStreams: 16, MaxStreamsPerTenant: 2})
	ctx := context.Background()
	now := s.clock.Now()
	for _, id := range []string{"acme/a", "acme/b"} {
		if _, err := s.streams.push(ctx, id, []float64{1}, now); err != nil {
			t.Fatalf("push %s: %v", id, err)
		}
	}
	if _, err := s.streams.push(ctx, "acme/c", []float64{1}, now); !errors.Is(err, errTenantQuota) {
		t.Fatalf("third acme stream: err=%v, want tenant quota", err)
	}
	if _, err := s.streams.push(ctx, "other/x", []float64{1}, now); err != nil {
		t.Fatalf("other tenant blocked by acme's quota: %v", err)
	}
	// Closing one frees the slot.
	if _, err := s.streams.close(ctx, "acme/a"); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := s.streams.push(ctx, "acme/c", []float64{1}, now); err != nil {
		t.Fatalf("push after freeing quota: %v", err)
	}
}

// TestStreamCapSheds: the global cap sheds creation.
func TestStreamCapSheds(t *testing.T) {
	s := registryServer(t, Config{MaxStreams: 3})
	ctx := context.Background()
	now := s.clock.Now()
	for _, id := range []string{"a", "b", "c"} {
		if _, err := s.streams.push(ctx, id, []float64{1}, now); err != nil {
			t.Fatalf("push %s: %v", id, err)
		}
	}
	if _, err := s.streams.push(ctx, "d", []float64{1}, now); !errors.Is(err, errStreamsFull) {
		t.Fatalf("over-cap create: err=%v, want streams full", err)
	}
	// Existing streams keep working at the cap.
	if _, err := s.streams.push(ctx, "a", []float64{2}, now); err != nil {
		t.Fatalf("push to existing stream at cap: %v", err)
	}
}

// TestStreamPushPanicContained: a push whose detector panics answers
// 500 through wrap's containment, and leaves its stream's lock and its
// pool slot free, so other streams keep accepting pushes.
func TestStreamPushPanicContained(t *testing.T) {
	s := registryServer(t, Config{})
	cl := serveHTTP(t, s)
	ctx := context.Background()
	// An entry with no detector: its first Push dereferences nil.
	bad := &streamEntry{id: "bad", tenant: "bad"}
	s.streams.mu.Lock()
	s.streams.streams[bad.id] = bad
	s.streams.mu.Unlock()

	_, err := cl.StreamPush(ctx, "bad", []float64{1})
	var serr *httpapi.StatusError
	if !errors.As(err, &serr) || serr.Status != http.StatusInternalServerError ||
		!strings.Contains(serr.Message, "panic") {
		t.Fatalf("panicking push: err=%v, want a 500 carrying the contained panic", err)
	}
	if got := s.rec.Count(obs.CounterPanicsContained); got != 1 {
		t.Fatalf("panics_contained = %d, want 1", got)
	}
	if !bad.mu.TryLock() {
		t.Fatal("the panicking stream's lock is still held")
	}
	bad.mu.Unlock()
	if held := len(s.pool.slots); held != 0 {
		t.Fatalf("%d pool slots still held after the panic", held)
	}
	if _, err := cl.StreamPush(ctx, "healthy", []float64{1, 2, 3}); err != nil {
		t.Fatalf("push to another stream after a contained panic: %v", err)
	}
}

// TestRegistryEvictIdle: idle eviction frees quota and counts once per
// stream.
func TestRegistryEvictIdle(t *testing.T) {
	clk := obs.NewFakeClock(time.Unix(1000, 0))
	s := registryServer(t, Config{Recorder: obs.NewWithClock(clk), MaxStreams: 8})
	ctx := context.Background()
	now := clk.Now()
	for _, id := range []string{"a", "b", "c"} {
		if _, err := s.streams.push(ctx, id, []float64{1}, now); err != nil {
			t.Fatalf("push %s: %v", id, err)
		}
	}
	s.streams.evictIdle(now.Add(11*time.Minute), 10*time.Minute)
	if got := s.rec.Count(obs.CounterIdleEvictions); got != 3 {
		t.Fatalf("idle evictions = %d, want 3", got)
	}
	s.streams.mu.Lock()
	total := s.streams.total
	s.streams.mu.Unlock()
	if total != 0 {
		t.Fatalf("quota total = %d after full eviction", total)
	}
	if _, err := s.streams.close(ctx, "a"); !errors.Is(err, errStreamNotFound) {
		t.Fatalf("evicted stream still closeable: %v", err)
	}
}

// TestEvictSkipsBusyStream: a stream whose lock is held is mid-push, so
// the sweep leaves it alone instead of waiting for it, and evicts it
// once it is free and still idle.
func TestEvictSkipsBusyStream(t *testing.T) {
	s := registryServer(t, Config{})
	ctx := context.Background()
	now := s.clock.Now()
	if _, err := s.streams.push(ctx, "busy", []float64{1}, now); err != nil {
		t.Fatalf("push: %v", err)
	}
	e := s.streams.streams["busy"]
	e.mu.Lock()
	s.streams.evictIdle(now.Add(time.Hour), time.Minute)
	e.mu.Unlock()
	if got := s.rec.Count(obs.CounterIdleEvictions); got != 0 {
		t.Fatalf("evicted a stream whose lock was held (%d evictions)", got)
	}
	s.streams.evictIdle(now.Add(time.Hour), time.Minute)
	if got := s.rec.Count(obs.CounterIdleEvictions); got != 1 {
		t.Fatalf("idle evictions = %d once the stream was free, want 1", got)
	}
}

// TestPushRacingClose: one-point pushes to one id race closes of it.
// Every pushed point must land in a stream some close flushes: a push
// that feeds a closed or evicted detector would lose its point.
func TestPushRacingClose(t *testing.T) {
	const pushes = 256
	s := registryServer(t, Config{QueueDepth: 2 * pushes})
	ctx := context.Background()
	now := s.clock.Now()
	var mu sync.Mutex
	flushed := 0
	closeOnce := func() error {
		res, err := s.streams.close(ctx, "race")
		if errors.Is(err, errStreamNotFound) {
			return nil
		}
		mu.Lock()
		flushed += res.total
		mu.Unlock()
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < pushes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.streams.push(ctx, "race", []float64{float64(i % 7)}, now); err != nil {
				t.Errorf("push %d: %v", i, err)
				return
			}
			if i%4 == 3 {
				if err := closeOnce(); err != nil {
					t.Errorf("close after push %d: %v", i, err)
				}
			}
		}(i)
	}
	wg.Wait()
	if err := closeOnce(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	if flushed != pushes {
		t.Fatalf("close replies account for %d of %d pushed points", flushed, pushes)
	}
}

// TestOneBudget: a detect, a stream push and a session round all wait
// for the same worker slots. With the only slot held, one of each parks
// in the queue and none finishes until the slot comes back.
func TestOneBudget(t *testing.T) {
	s := registryServer(t, Config{Workers: 1, Recorder: obs.New()})
	cl := serveHTTP(t, s)
	ctx := context.Background()
	ser := synth.YahooLike(13, 256)
	truth := make([]string, ser.Len())
	for i, l := range ser.Labels {
		truth[i] = l.String()
	}

	if err := s.pool.acquire(ctx, true); err != nil {
		t.Fatalf("take the only slot: %v", err)
	}
	// Give the slot back before the listener closes even when the test
	// fails early: closing waits for the parked requests.
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(s.pool.release) }
	t.Cleanup(release)
	detected := make(chan error, 1)
	pushed := make(chan error, 1)
	go func() {
		_, err := cl.Detect(ctx, ser.Values, nil)
		detected <- err
	}()
	go func() {
		_, err := cl.StreamPush(ctx, "one", ser.Values[:64])
		pushed <- err
	}()
	st, err := cl.CreateSession(ctx, httpapi.SessionRequest{Series: ser.Values, AutoLabel: true, Truth: truth})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	sess := s.sessions.lookup(st.ID)
	waitFor(t, "queue_depth 3", func() bool { return s.rec.GaugeValue(obs.GaugeQueueDepth) == 3 })
	select {
	case err := <-detected:
		t.Fatalf("detect finished while the only slot was held: %v", err)
	case err := <-pushed:
		t.Fatalf("stream push finished while the only slot was held: %v", err)
	default:
	}
	if got := sess.status(); got.State != httpapi.StateRunning || got.Queries != 0 {
		t.Fatalf("session progressed while the only slot was held: %+v", got)
	}

	release()
	if err := <-detected; err != nil {
		t.Fatalf("detect after release: %v", err)
	}
	if err := <-pushed; err != nil {
		t.Fatalf("stream push after release: %v", err)
	}
	waitFor(t, "the session to finish", func() bool { return sess.status().State == httpapi.StateDone })
	if got := s.rec.GaugeValue(obs.GaugeQueueDepth); got != 0 {
		t.Fatalf("queue_depth = %d with nothing waiting", got)
	}
}

// TestNoIdleHolder: a session waiting for a human's label holds no
// slot, so a detect runs beside it on a one-worker server.
func TestNoIdleHolder(t *testing.T) {
	s := registryServer(t, Config{Workers: 1, Recorder: obs.New()})
	cl := serveHTTP(t, s)
	ctx := context.Background()
	ser := synth.YahooLike(11, 400)
	st, err := cl.CreateSession(ctx, httpapi.SessionRequest{Series: ser.Values})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	sess := s.sessions.lookup(st.ID)
	waitFor(t, "awaiting_label", func() bool { return sess.status().State == httpapi.StateAwaitingLabel })
	if held := len(s.pool.slots); held != 0 {
		t.Fatalf("a session awaiting a label holds %d slots", held)
	}
	if _, err := cl.Detect(ctx, ser.Values, nil); err != nil {
		t.Fatalf("detect beside a parked session: %v", err)
	}
}
