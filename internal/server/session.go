package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cabd"
	"cabd/httpapi"
	"cabd/internal/obs"
	"cabd/internal/oracle"
	"cabd/internal/series"
)

// session is one interactive active-learning run — the paper's
// user-driven loop (Algorithm 2 line 5 / Algorithm 4) lifted over HTTP.
// DetectInteractiveCtx runs in a dedicated goroutine under a pool slot;
// each uncertainty-sampled query gives the slot back and parks the
// goroutine on a channel-backed labeler until a label arrives via POST
// .../labels, and the run resumes until every candidate clears the
// configured confidence γ (or the query budget runs out).
type session struct {
	id     string
	srv    *Server
	cancel context.CancelFunc
	done   chan struct{}
	// req is the originating request, retained verbatim so the session
	// can be checkpointed and deterministically re-run after a restart.
	req httpapi.SessionRequest
	// created anchors eviction-age logging.
	created time.Time

	mu      sync.Mutex
	state   string
	queries int
	pending *pendingQuery
	result  *httpapi.DetectResponse
	errMsg  string
	last    time.Time
	// labels is every delivered label in delivery order (human sessions);
	// it rides in the checkpoint so a restart can replay them.
	labels []labelRecord
	// replay answers restored queries by index before parking on a
	// human: the pipeline is deterministic under a fixed seed, so it
	// re-asks the same indices in the same order.
	replay map[int]cabd.Label
}

// pendingQuery is one parked labeler call: the index the loop wants
// labeled and the channel its answer travels back on.
type pendingQuery struct {
	index  int
	value  float64
	answer chan cabd.Label
}

// sessionTable holds the live sessions.
type sessionTable struct {
	srv  *Server
	mu   sync.Mutex
	m    map[string]*session
	next atomic.Int64
	wg   sync.WaitGroup
}

func newSessionTable(s *Server) *sessionTable {
	return &sessionTable{srv: s, m: map[string]*session{}}
}

// errSessionsFull sheds session creation at the cap.
var errSessionsFull = errors.New("server saturated: session cap reached")

// create registers a new session and starts its pipeline.
func (t *sessionTable) create(req httpapi.SessionRequest, opts *detectOptions, truth []series.Label) (*session, error) {
	t.mu.Lock()
	if len(t.m) >= t.srv.cfg.MaxSessions {
		t.mu.Unlock()
		return nil, errSessionsFull
	}
	sess, ctx := t.newSession("s"+strconv.FormatInt(t.next.Add(1), 10), req)
	t.addLocked(sess)
	t.mu.Unlock()

	t.srv.checkpointSession(sess)
	t.start(ctx, sess, opts, truth)
	return sess, nil
}

// newSession builds a running session under id and returns it with the
// context its pipeline runs under, which sess.cancel ends. The context
// exists before the session is registered, so a cancel that finds the
// session in the table always reaches its pipeline.
func (t *sessionTable) newSession(id string, req httpapi.SessionRequest) (*session, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	now := t.srv.clock.Now()
	return &session{
		id:      id,
		srv:     t.srv,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   httpapi.StateRunning,
		req:     req,
		created: now,
		last:    now,
	}, ctx
}

// addLocked registers sess under its id; t.mu must be held.
func (t *sessionTable) addLocked(sess *session) {
	t.m[sess.id] = sess
	t.srv.rec.SetGauge(obs.GaugeSessionsActive, int64(len(t.m)))
}

// start runs sess's pipeline under ctx on its own goroutine, which wait
// joins.
func (t *sessionTable) start(ctx context.Context, sess *session, opts *detectOptions, truth []series.Label) {
	det := t.srv.detectorFor(opts)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		sess.run(ctx, det, sess.req.Series, truth)
	}()
}

// lookup returns the session for id, or nil.
func (t *sessionTable) lookup(id string) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

// remove drops id from the table.
func (t *sessionTable) remove(id string) {
	t.mu.Lock()
	delete(t.m, id)
	t.srv.rec.SetGauge(obs.GaugeSessionsActive, int64(len(t.m)))
	t.mu.Unlock()
}

// evictIdle cancels and reclaims sessions idle past ttl — wedged
// awaiting-label sessions included — in deterministic id order. An
// evicted session's checkpoint is dropped too: idle reclamation is a
// deliberate end, not a crash, so a restart must not resurrect it.
func (t *sessionTable) evictIdle(now time.Time, ttl time.Duration) {
	t.mu.Lock()
	var expired []*session
	for _, sess := range t.m {
		sess.mu.Lock()
		idle := now.Sub(sess.last) > ttl
		sess.mu.Unlock()
		if idle {
			expired = append(expired, sess)
		}
	}
	sort.Slice(expired, func(a, b int) bool { return expired[a].id < expired[b].id })
	for _, sess := range expired {
		delete(t.m, sess.id)
		t.srv.rec.Add(obs.CounterIdleEvictions, 1)
	}
	t.srv.rec.SetGauge(obs.GaugeSessionsActive, int64(len(t.m)))
	t.mu.Unlock()
	// Cancel outside the table lock: each cancel wakes a parked labeler
	// that might be racing a status call.
	for _, sess := range expired {
		age := now.Sub(sess.created)
		sess.mu.Lock()
		idleFor := now.Sub(sess.last)
		sess.mu.Unlock()
		t.srv.logf("cabd-serve: session %s evicted after idle timeout (age %s, idle %s)",
			sess.id, age, idleFor)
		sess.markCancelled("evicted after idle timeout")
		t.srv.dropSessionCheckpoint(sess.id)
	}
}

// cancelAll cancels every live session (drain path).
func (t *sessionTable) cancelAll() {
	t.mu.Lock()
	var all []*session
	for _, sess := range t.m {
		all = append(all, sess)
	}
	t.m = map[string]*session{}
	t.srv.rec.SetGauge(obs.GaugeSessionsActive, 0)
	t.mu.Unlock()
	sort.Slice(all, func(a, b int) bool { return all[a].id < all[b].id })
	for _, sess := range all {
		sess.markCancelled("server draining")
	}
}

// wait blocks until every session goroutine has exited.
func (t *sessionTable) wait() { t.wg.Wait() }

// run executes the interactive pipeline and records its verdict.
func (s *session) run(ctx context.Context, det *cabd.Detector, vals []float64, truth []series.Label) {
	res, err := s.interact(ctx, det, vals, truth)

	s.mu.Lock()
	s.pending = nil
	s.last = s.srv.clock.Now()
	cancelled := s.state == httpapi.StateCancelled
	switch {
	case cancelled:
		// Keep the cancellation verdict even if the pipeline returned.
	case err != nil:
		s.state = httpapi.StateFailed
		s.errMsg = err.Error()
	default:
		s.state = httpapi.StateDone
		s.result = toWire(res)
		s.queries = res.Queries
	}
	s.mu.Unlock()
	// Persist the terminal verdict, but not
	// a cancellation: drain cancels every session and must leave the
	// last pre-drain checkpoint for the restart to resume from, while
	// deliberate cancels drop the file at their call site.
	if !cancelled {
		s.srv.checkpointSession(s)
	}
	close(s.done)
}

// interact runs DetectInteractiveCtx holding a pool slot. With ground
// truth the oracle answers queries inline (load-testing mode) and the
// slot is kept throughout; otherwise each query first consults the
// replay map (labels restored from a checkpoint — the deterministic
// pipeline re-asks the same indices, so a restored session
// fast-forwards through them, slot held) and only then gives the slot
// back and parks on the channel labeler until a client posts the
// label, taking a slot again before the next round.
func (s *session) interact(ctx context.Context, det *cabd.Detector, vals []float64, truth []series.Label) (*cabd.Result, error) {
	pool := s.srv.pool
	if err := pool.acquire(ctx, false); err != nil {
		return nil, err
	}
	// held is read and written only on this goroutine: the labeler runs
	// inside DetectInteractiveCtx.
	held := true
	defer func() {
		if held {
			pool.release()
		}
	}()
	var label func(i int) cabd.Label
	if truth != nil {
		orc := oracle.New(&series.Series{Name: "session", Values: vals, Labels: truth})
		label = func(i int) cabd.Label {
			s.noteQuery()
			return cabd.Label(orc.Label(i))
		}
	} else {
		label = func(i int) cabd.Label {
			if lbl, ok := s.replayLabel(i); ok {
				return lbl
			}
			if held {
				pool.release()
				held = false
			}
			lbl := s.await(ctx, vals, i)
			// A cancel can interrupt this wait. The round that follows
			// (one forest retrain: core checks ctx only between rounds)
			// then runs without a slot, the one computation outside the
			// budget, and only after a cancel.
			held = pool.acquire(ctx, false) == nil
			return lbl
		}
	}
	return det.DetectInteractiveCtx(ctx, vals, label)
}

// replayLabel answers a restored query from the checkpoint's recorded
// labels, if present.
func (s *session) replayLabel(i int) (cabd.Label, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lbl, ok := s.replay[i]
	if !ok {
		return 0, false
	}
	s.queries++
	s.last = s.srv.clock.Now()
	return lbl, true
}

// await parks the pipeline on one uncertainty-sampled query until its
// label arrives (or the session is cancelled — the Normal returned then
// is discarded, because the loop's next ctx check aborts the run).
func (s *session) await(ctx context.Context, vals []float64, i int) cabd.Label {
	pq := &pendingQuery{index: i, answer: make(chan cabd.Label, 1)}
	if i >= 0 && i < len(vals) {
		pq.value = vals[i]
	}
	s.mu.Lock()
	s.pending = pq
	s.state = httpapi.StateAwaitingLabel
	s.last = s.srv.clock.Now()
	s.mu.Unlock()
	select {
	case lbl := <-pq.answer:
		s.mu.Lock()
		s.pending = nil
		s.state = httpapi.StateRunning
		s.queries++
		s.last = s.srv.clock.Now()
		s.mu.Unlock()
		return lbl
	case <-ctx.Done():
		return cabd.Normal
	}
}

// noteQuery bumps the query counter for the auto-label oracle path.
func (s *session) noteQuery() {
	s.mu.Lock()
	s.queries++
	s.last = s.srv.clock.Now()
	s.mu.Unlock()
}

// markCancelled cancels the pipeline and records the verdict.
func (s *session) markCancelled(reason string) {
	s.mu.Lock()
	if s.state != httpapi.StateDone && s.state != httpapi.StateFailed {
		s.state = httpapi.StateCancelled
		s.errMsg = reason
		s.pending = nil
	}
	s.mu.Unlock()
	s.cancel()
}

// touch refreshes the idle clock on client reads.
func (s *session) touch() {
	s.mu.Lock()
	s.last = s.srv.clock.Now()
	s.mu.Unlock()
}

// status snapshots the session resource.
func (s *session) status() httpapi.SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := httpapi.SessionStatus{
		ID:      s.id,
		State:   s.state,
		Queries: s.queries,
		Result:  s.result,
		Error:   s.errMsg,
	}
	if s.pending != nil {
		st.Pending = &httpapi.PendingCandidate{Index: s.pending.index, Value: s.pending.value}
	}
	return st
}

// deliver hands a posted label to the parked labeler. It fails when no
// query is pending or the index does not match the pending candidate.
func (s *session) deliver(index int, lbl cabd.Label) error {
	s.mu.Lock()
	if s.state != httpapi.StateAwaitingLabel || s.pending == nil {
		state := s.state
		s.mu.Unlock()
		return fmt.Errorf("session %s has no pending query (state %s)", s.id, state)
	}
	if index != s.pending.index {
		pending := s.pending.index
		s.mu.Unlock()
		return fmt.Errorf("label is for index %d but the pending query is index %d", index, pending)
	}
	// Claim the pending query under the lock, send outside it: clearing
	// s.pending guarantees exactly one sender, and the answer channel is
	// buffered, so the send below can never park.
	answer := s.pending.answer
	s.pending = nil
	s.state = httpapi.StateRunning
	s.labels = append(s.labels, labelRecord{Index: index, Label: lbl.String()})
	s.last = s.srv.clock.Now()
	s.mu.Unlock()
	answer <- lbl
	return nil
}

// --- handlers ---

// handleSessionCreate boots one interactive labeling session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req httpapi.SessionRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	opts, err := parseOptions(req.Options)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var truth []series.Label
	if req.AutoLabel {
		truth, err = parseTruth(req.Truth, len(req.Series))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	sess, err := s.sessions.create(req, opts, truth)
	if err != nil {
		s.writeShed(w, err.Error(), s.capRetryAfter(s.cfg.SessionTTL))
		return
	}
	s.writeJSON(w, http.StatusCreated, sess.status())
}

// handleSessionList lists every live session, sorted by id.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.sessions.mu.Lock()
	all := make([]*session, 0, len(s.sessions.m))
	for _, sess := range s.sessions.m {
		all = append(all, sess)
	}
	s.sessions.mu.Unlock()
	sort.Slice(all, func(a, b int) bool { return all[a].id < all[b].id })
	out := httpapi.SessionList{Sessions: make([]httpapi.SessionStatus, 0, len(all))}
	for _, sess := range all {
		out.Sessions = append(out.Sessions, sess.status())
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleSessionGet returns the session resource: its state, the
// uncertainty-sampled candidate the loop is parked on (nil while it
// computes or once it is finished) and, once done, the result. Both
// GET /v1/sessions/{id} and GET /v1/sessions/{id}/pending answer with it.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.lookup(r.PathValue("id"))
	if sess == nil {
		s.writeError(w, http.StatusNotFound, "session not found")
		return
	}
	sess.touch()
	s.writeJSON(w, http.StatusOK, sess.status())
}

// handleSessionLabel posts one label into the session, resuming the
// parked pipeline.
func (s *Server) handleSessionLabel(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.lookup(r.PathValue("id"))
	if sess == nil {
		s.writeError(w, http.StatusNotFound, "session not found")
		return
	}
	var req httpapi.LabelRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	lbl, err := parseLabel(req.Label)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := sess.deliver(req.Index, lbl); err != nil {
		s.writeError(w, http.StatusConflict, err.Error())
		return
	}
	s.rec.Add(obs.CounterSessionLabels, 1)
	// Persist the grown label set so a crash after this acknowledgment
	// never asks the user to repeat a label they already gave.
	s.checkpointSession(sess)
	s.writeJSON(w, http.StatusOK, sess.status())
}

// handleSessionCancel cancels and removes the session.
func (s *Server) handleSessionCancel(w http.ResponseWriter, r *http.Request) {
	sess := s.sessions.lookup(r.PathValue("id"))
	if sess == nil {
		s.writeError(w, http.StatusNotFound, "session not found")
		return
	}
	s.sessions.remove(sess.id)
	sess.markCancelled("cancelled by client")
	s.dropSessionCheckpoint(sess.id)
	s.writeJSON(w, http.StatusOK, sess.status())
}
