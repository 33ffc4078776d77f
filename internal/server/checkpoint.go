package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cabd"
	"cabd/httpapi"
	"cabd/internal/dataio"
	"cabd/internal/series"
)

// sessionCheckpoint is the on-disk form of one interactive session,
// written to CheckpointDir as session-<id>.json. It records the
// original request plus every label delivered so far — enough for a
// restarted server to re-run the deterministic pipeline (fixed seed,
// same label set) and converge to the same verdict without asking the
// user to repeat themselves. Terminal sessions additionally carry the
// final wire result, which is what a restart serves for them. Older
// checkpoints also hold a "model" key (the serialized classifier);
// nothing reads it, and decoding ignores it.
type sessionCheckpoint struct {
	ID        string                  `json:"id"`
	Series    []float64               `json:"series"`
	Options   *httpapi.DetectOptions  `json:"options,omitempty"`
	AutoLabel bool                    `json:"auto_label,omitempty"`
	Truth     []string                `json:"truth,omitempty"`
	Labels    []labelRecord           `json:"labels,omitempty"`
	Queries   int                     `json:"queries"`
	State     string                  `json:"state"`
	Result    *httpapi.DetectResponse `json:"result,omitempty"`
	Error     string                  `json:"error,omitempty"`
}

// labelRecord is one delivered label, in delivery order.
type labelRecord struct {
	Index int    `json:"index"`
	Label string `json:"label"`
}

// sessionCheckpointPath names the checkpoint file for a session id.
func sessionCheckpointPath(dir, id string) string {
	return filepath.Join(dir, "session-"+id+".json")
}

// checkpointSession persists the session's current checkpoint. Best
// effort: a failed write is logged, not fatal — the session keeps
// serving and the next persistence point retries.
func (s *Server) checkpointSession(sess *session) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	cp := sess.snapshotCheckpoint()
	data, err := json.Marshal(cp)
	if err != nil {
		s.logf("cabd-serve: checkpoint session %s: encode: %v", cp.ID, err)
		return
	}
	if err := dataio.WriteFileAtomic(sessionCheckpointPath(s.cfg.CheckpointDir, cp.ID), data); err != nil {
		s.logf("cabd-serve: checkpoint session %s: %v", cp.ID, err)
	}
}

// dropSessionCheckpoint deletes a session's checkpoint file — the
// session ended on purpose (client cancel, idle eviction), so a restart
// must not resurrect it. Drain deliberately does NOT call this: drained
// sessions are the ones a restart resumes.
func (s *Server) dropSessionCheckpoint(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	if err := os.Remove(sessionCheckpointPath(s.cfg.CheckpointDir, id)); err != nil && !os.IsNotExist(err) {
		s.logf("cabd-serve: drop checkpoint %s: %v", id, err)
	}
}

// snapshotCheckpoint copies the session into its on-disk form.
func (s *session) snapshotCheckpoint() *sessionCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := &sessionCheckpoint{
		ID:        s.id,
		Series:    s.req.Series,
		Options:   s.req.Options,
		AutoLabel: s.req.AutoLabel,
		Truth:     s.req.Truth,
		Labels:    append([]labelRecord(nil), s.labels...),
		Queries:   s.queries,
		State:     s.state,
		Result:    s.result,
		Error:     s.errMsg,
	}
	// A parked query checkpoints as running: on restore the replayed
	// pipeline re-parks on the same uncertainty-sampled index by itself.
	if cp.State == httpapi.StateAwaitingLabel {
		cp.State = httpapi.StateRunning
	}
	return cp
}

// restore reloads every session checkpoint in dir: terminal sessions
// come back as completed records (result still fetchable), open ones
// re-run the deterministic pipeline with recorded labels replayed by
// index until it either finishes or parks on the first genuinely new
// query. The id counter resumes above the highest restored id so new
// sessions never collide with resurrected ones.
func (t *sessionTable) restore(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "session-*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	var maxID int64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("restore %s: %w", p, err)
		}
		var cp sessionCheckpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return fmt.Errorf("restore %s: %w", p, err)
		}
		if cp.ID == "" {
			return fmt.Errorf("restore %s: checkpoint has no session id", p)
		}
		// Later checkpoint writes and deletes build their path from the
		// id, so it must be one this server could have minted, and the
		// one its own file is named after.
		n, ok := parseSessionID(cp.ID)
		if !ok {
			return fmt.Errorf("restore %s: invalid session id %q", p, cp.ID)
		}
		if filepath.Base(p) != "session-"+cp.ID+".json" {
			return fmt.Errorf("restore %s: session id %q does not match the file name", p, cp.ID)
		}
		if n > maxID {
			maxID = n
		}
		if err := t.restoreOne(&cp); err != nil {
			return fmt.Errorf("restore %s: %w", p, err)
		}
	}
	if maxID > t.next.Load() {
		t.next.Store(maxID)
	}
	return nil
}

// parseSessionID returns the counter value of a session id, and whether
// the id is exactly the one sessionTable.create mints for that value:
// "s" followed by a positive decimal.
func parseSessionID(id string) (int64, bool) {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "s"), 10, 64)
	return n, err == nil && n > 0 && id == "s"+strconv.FormatInt(n, 10)
}

// restoreOne rebuilds a single session from its checkpoint and
// registers it under its old id, bypassing the MaxSessions shed (these
// sessions were admitted before the restart; refusing them now would
// lose user work). A terminal session comes back finished; an open one
// restarts its pipeline with the recorded labels to replay.
func (t *sessionTable) restoreOne(cp *sessionCheckpoint) error {
	opts, err := parseOptions(cp.Options)
	if err != nil {
		return err
	}
	req := httpapi.SessionRequest{
		Series:    cp.Series,
		Options:   cp.Options,
		AutoLabel: cp.AutoLabel,
		Truth:     cp.Truth,
	}
	terminal := cp.State == httpapi.StateDone || cp.State == httpapi.StateFailed || cp.State == httpapi.StateCancelled
	var replay map[int]cabd.Label
	var truth []series.Label
	if !terminal {
		replay = make(map[int]cabd.Label, len(cp.Labels))
		for _, lr := range cp.Labels {
			lbl, err := parseLabel(lr.Label)
			if err != nil {
				return fmt.Errorf("recorded label for index %d: %w", lr.Index, err)
			}
			replay[lr.Index] = lbl
		}
		if cp.AutoLabel {
			truth, err = parseTruth(cp.Truth, len(cp.Series))
			if err != nil {
				return err
			}
		}
	}
	// The session is filled in before it is registered, so no lock.
	sess, ctx := t.newSession(cp.ID, req)
	sess.labels = cp.Labels
	sess.replay = replay
	if terminal {
		sess.state = cp.State
		sess.queries = cp.Queries
		sess.result = cp.Result
		sess.errMsg = cp.Error
		close(sess.done)
	}
	t.mu.Lock()
	t.addLocked(sess)
	t.mu.Unlock()
	if !terminal {
		t.start(ctx, sess, opts, truth)
	}
	return nil
}
