package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cabd/httpapi"
	"cabd/internal/obs"
	"cabd/internal/server"
	"cabd/internal/synth"
)

// ingestBatch builds n forwarded detections for one agent/stream pair.
func ingestBatch(agent, stream string, n, from int) httpapi.IngestRequest {
	req := httpapi.IngestRequest{Agent: agent}
	for i := 0; i < n; i++ {
		idx := from + i
		req.Detections = append(req.Detections, httpapi.ForwardedDetection{
			Key:        fmt.Sprintf("%s/%s/%d", agent, stream, idx),
			Stream:     stream,
			Index:      idx,
			Subtype:    httpapi.LabelSingleAnomaly,
			Confidence: 0.9,
		})
	}
	return req
}

// TestIngestDedupAcrossRestart is the server half of the at-least-once
// contract: duplicates are absorbed within a run AND across a restart
// replaying the NDJSON journal, so an agent may redeliver freely
// without ever double counting a detection.
func TestIngestDedupAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv, _, cl := newTestServer(t, server.Config{CheckpointDir: dir})
	batch := ingestBatch("a1", "cpu", 5, 0)
	resp, err := cl.Ingest(ctx, batch)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if resp.Accepted != 5 || resp.Duplicates != 0 || resp.Total != 5 {
		t.Fatalf("first batch: %+v, want 5 accepted / 0 dup / total 5", resp)
	}
	// Full redelivery of an acknowledged batch: all duplicates.
	resp, err = cl.Ingest(ctx, batch)
	if err != nil {
		t.Fatalf("redeliver: %v", err)
	}
	if resp.Accepted != 0 || resp.Duplicates != 5 || resp.Total != 5 {
		t.Fatalf("redelivery: %+v, want 0 accepted / 5 dup / total 5", resp)
	}
	srv.Close()

	// Restart on the same directory, with a torn tail appended to the
	// journal — the shape a crash mid-append leaves behind.
	jp := filepath.Join(dir, "ingest.ndjson")
	f, err := os.OpenFile(jp, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn/cpu/99","str`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, cl2 := newTestServer(t, server.Config{CheckpointDir: dir})
	resp, err = cl2.Ingest(ctx, batch)
	if err != nil {
		t.Fatalf("ingest after restart: %v", err)
	}
	if resp.Accepted != 0 || resp.Duplicates != 5 || resp.Total != 5 {
		t.Fatalf("post-restart redelivery: %+v, want 0 accepted / 5 dup / total 5", resp)
	}
	// The torn key was never acknowledged, so its redelivery is fresh.
	resp, err = cl2.Ingest(ctx, httpapi.IngestRequest{Agent: "torn", Detections: []httpapi.ForwardedDetection{
		{Key: "torn/cpu/99", Stream: "cpu", Index: 99, Subtype: httpapi.LabelSingleAnomaly, Confidence: 0.5},
	}})
	if err != nil {
		t.Fatalf("redeliver torn detection: %v", err)
	}
	if resp.Accepted != 1 || resp.Total != 6 {
		t.Fatalf("torn redelivery: %+v, want 1 accepted / total 6", resp)
	}

	stats, err := cl2.IngestStats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Total != 6 || stats.ByStream["cpu"] != 6 {
		t.Fatalf("stats after restart: %+v, want total 6 all on cpu", stats)
	}
	if stats.ByAgent["a1"] != 5 || stats.ByAgent["torn"] != 1 {
		t.Fatalf("per-agent stats: %+v", stats.ByAgent)
	}
}

// TestIngestValidation: a detection without its idempotency key is a
// client error — accepting it would make dedup meaningless.
func TestIngestValidation(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{})
	_, err := cl.Ingest(context.Background(), httpapi.IngestRequest{
		Agent:      "a1",
		Detections: []httpapi.ForwardedDetection{{Stream: "cpu", Index: 3}},
	})
	serr, ok := err.(*httpapi.StatusError)
	if !ok || serr.Status != 400 {
		t.Fatalf("keyless detection: %v, want HTTP 400", err)
	}
}

// TestSessionCrashRecoveryConvergence is the restart contract for the
// interactive loop: kill the server mid-session (after some labels),
// boot a fresh one on the same checkpoint directory, and the restored
// session — replaying the recorded labels through the deterministic
// pipeline — converges to exactly the verdict of an uninterrupted run.
// FakeClock recorders make the runs time-invariant, so the comparison
// is exact (stage timings included).
func TestSessionCrashRecoveryConvergence(t *testing.T) {
	s := synth.YahooLike(11, 400)
	req := httpapi.SessionRequest{
		Series:  s.Values,
		Options: &httpapi.DetectOptions{Confidence: 0.85, Seed: 7},
	}
	answer := func(index int) string { return s.Labels[index].String() }
	ctx := context.Background()

	// Uninterrupted baseline.
	_, _, blCl := newTestServer(t, server.Config{
		Recorder: obs.NewWithClock(obs.NewFakeClock(time.Time{})),
	})
	baseline, err := blCl.RunSession(ctx, req, func(index int, _ float64) string {
		return answer(index)
	}, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("baseline RunSession: %v", err)
	}
	if baseline.State != httpapi.StateDone {
		t.Fatalf("baseline state %q (error %q)", baseline.State, baseline.Error)
	}
	if baseline.Queries < 3 {
		t.Fatalf("baseline converged after %d queries; the crash test needs at least 3", baseline.Queries)
	}

	// Interrupted run: answer exactly 2 labels, then drain ("crash").
	// Drain keeps checkpoint files — that is the point.
	dir := t.TempDir()
	srv1, ts1, cl1 := newTestServer(t, server.Config{
		CheckpointDir: dir,
		Recorder:      obs.NewWithClock(obs.NewFakeClock(time.Time{})),
	})
	st, err := cl1.CreateSession(ctx, req)
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	id := st.ID
	for answered := 0; answered < 2; {
		st, err = cl1.Pending(ctx, id)
		if err != nil {
			t.Fatalf("pending: %v", err)
		}
		if st.State != httpapi.StateAwaitingLabel {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		if _, err := cl1.PostLabel(ctx, id, st.Pending.Index, answer(st.Pending.Index)); err != nil {
			t.Fatalf("label %d: %v", st.Pending.Index, err)
		}
		answered++
	}
	ts1.Close()
	srv1.Close()

	// Restart on the same directory and finish the session under its
	// original id.
	_, _, cl2 := newTestServer(t, server.Config{
		CheckpointDir: dir,
		Recorder:      obs.NewWithClock(obs.NewFakeClock(time.Time{})),
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("restored session did not converge in time")
		}
		st, err = cl2.Session(ctx, id)
		if err != nil {
			t.Fatalf("restored session lookup: %v", err)
		}
		if st.State == httpapi.StateDone {
			break
		}
		if st.State == httpapi.StateFailed || st.State == httpapi.StateCancelled {
			t.Fatalf("restored session ended %q: %s", st.State, st.Error)
		}
		if st.State == httpapi.StateAwaitingLabel && st.Pending != nil {
			if _, err := cl2.PostLabel(ctx, id, st.Pending.Index, answer(st.Pending.Index)); err != nil {
				t.Fatalf("label %d after restart: %v", st.Pending.Index, err)
			}
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}

	if st.Queries != baseline.Queries {
		t.Fatalf("restored session used %d queries, baseline %d", st.Queries, baseline.Queries)
	}
	if !reflect.DeepEqual(st.Result, baseline.Result) {
		t.Fatalf("restored verdict diverged from the uninterrupted run:\ngot  %+v\nwant %+v", st.Result, baseline.Result)
	}
}

// TestSessionCheckpointLifecycle pins when checkpoint files exist: a
// live session has one, a completed auto-label session keeps one (with
// its result), a client cancel drops it, and a restart resurrects
// the terminal record without colliding with new session ids.
func TestSessionCheckpointLifecycle(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s := synth.YahooLike(3, 300)
	truth := make([]string, s.Len())
	for i, l := range s.Labels {
		truth[i] = l.String()
	}
	req := httpapi.SessionRequest{
		Series:    s.Values,
		Options:   &httpapi.DetectOptions{Confidence: 0.85, Seed: 3},
		AutoLabel: true,
		Truth:     truth,
	}

	srv1, ts1, cl1 := newTestServer(t, server.Config{CheckpointDir: dir})
	st, err := cl1.CreateSession(ctx, req)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cpPath := filepath.Join(dir, "session-"+st.ID+".json")
	if _, err := os.Stat(cpPath); err != nil {
		t.Fatalf("live session has no checkpoint: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State != httpapi.StateDone {
		if time.Now().After(deadline) {
			t.Fatal("auto-label session did not finish")
		}
		if st.State == httpapi.StateFailed {
			t.Fatalf("session failed: %s", st.Error)
		}
		time.Sleep(2 * time.Millisecond)
		if st, err = cl1.Session(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	done := st
	ts1.Close()
	srv1.Close()

	// Restart: the finished session is still addressable with the same
	// result, and a brand-new session does not reuse its id.
	srv2, ts2, cl2 := newTestServer(t, server.Config{CheckpointDir: dir})
	got, err := cl2.Session(ctx, done.ID)
	if err != nil {
		t.Fatalf("restored terminal session: %v", err)
	}
	if got.State != httpapi.StateDone || !reflect.DeepEqual(got.Result, done.Result) {
		t.Fatalf("restored terminal session diverged:\ngot  %+v\nwant %+v", got, done)
	}
	fresh, err := cl2.CreateSession(ctx, httpapi.SessionRequest{Series: s.Values, AutoLabel: true, Truth: truth})
	if err != nil {
		t.Fatalf("fresh session after restore: %v", err)
	}
	if fresh.ID == done.ID {
		t.Fatalf("fresh session reused restored id %s", fresh.ID)
	}
	// Client cancel is deliberate: the checkpoint goes with it.
	if err := cl2.CancelSession(ctx, done.ID); err != nil {
		t.Fatalf("cancel restored session: %v", err)
	}
	if _, err := os.Stat(cpPath); !os.IsNotExist(err) {
		t.Fatalf("cancelled session left its checkpoint behind (stat err %v)", err)
	}
	ts2.Close()
	srv2.Close()
}

// TestRestoreCheckpointWithModel: terminal checkpoints written before
// the session model was dropped carry a "model" key (the serialized
// classifier). testdata/session-s1.json is one, written by a server of
// that time for an auto-labelled session. It must still restore, to the
// state, query count and result it recorded.
func TestRestoreCheckpointWithModel(t *testing.T) {
	data, err := os.ReadFile("testdata/session-s1.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		State   string                  `json:"state"`
		Queries int                     `json:"queries"`
		Result  *httpapi.DetectResponse `json:"result"`
		Model   json.RawMessage         `json:"model"`
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Model) == 0 || want.State != httpapi.StateDone || want.Result == nil {
		t.Fatalf("fixture is not a terminal checkpoint with a model (state %q)", want.State)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "session-s1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, cl := newTestServer(t, server.Config{CheckpointDir: dir})
	got, err := cl.Session(context.Background(), "s1")
	if err != nil {
		t.Fatalf("restored session: %v", err)
	}
	if got.State != want.State || got.Queries != want.Queries || !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("restored session diverged from its checkpoint:\ngot  %+v\nwant state %q, %d queries, result %+v",
			got, want.State, want.Queries, want.Result)
	}
}

// TestSessionEvictionDropsCheckpoint: the janitor reclaiming an idle
// session deletes its checkpoint — idle death is deliberate, so a
// restart must not resurrect the session.
func TestSessionEvictionDropsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	clk := obs.NewFakeClock(time.Time{})
	rec := obs.NewWithClock(clk)
	var evictions []string
	srv, _, cl := newTestServer(t, server.Config{
		CheckpointDir: dir,
		Recorder:      rec,
		SessionTTL:    time.Minute,
		Logf:          func(format string, args ...any) { evictions = append(evictions, fmt.Sprintf(format, args...)) },
	})
	st, err := cl.CreateSession(context.Background(), httpapi.SessionRequest{
		Series: synth.YahooLike(5, 300).Values,
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cpPath := filepath.Join(dir, "session-"+st.ID+".json")
	if _, err := os.Stat(cpPath); err != nil {
		t.Fatalf("live session has no checkpoint: %v", err)
	}
	clk.Advance(2 * time.Minute)
	srv.Sweep()
	if _, err := os.Stat(cpPath); !os.IsNotExist(err) {
		t.Fatalf("evicted session left its checkpoint behind (stat err %v)", err)
	}
	if len(evictions) == 0 {
		t.Fatal("eviction produced no log line")
	}
}

// TestRestoreRejectsForeignSessionIDs: a checkpoint's id names every
// later write and delete of its file, so restore accepts only ids this
// server mints ("s" and a positive decimal) that match their own file
// name. The first case is the reproduction: a terminal checkpoint whose
// id walks out of the directory used to make the idle janitor delete
// victim.json in the directory's parent.
func TestRestoreRejectsForeignSessionIDs(t *testing.T) {
	for _, tc := range []struct{ file, id string }{
		{"session-s1.json", "/../../victim"},
		{"session-s1.json", "s2"},
		{"session-s0.json", "s0"},
		{"session-s01.json", "s01"},
		{"session-x1.json", "x1"},
		{"session-s.json", "s"},
		{"session-s-1.json", "s-1"},
		{"session-s99999999999999999999.json", "s99999999999999999999"},
	} {
		root := t.TempDir()
		dir := filepath.Join(root, "ckpt")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		victim := filepath.Join(root, "victim.json")
		if err := os.WriteFile(victim, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.file)
		cp := fmt.Sprintf(`{"id":%q,"series":[1,2,3,4],"queries":0,"state":%q}`, tc.id, httpapi.StateDone)
		if err := os.WriteFile(path, []byte(cp), 0o644); err != nil {
			t.Fatal(err)
		}
		clk := obs.NewFakeClock(time.Time{})
		srv, err := server.New(server.Config{
			CheckpointDir: dir,
			Recorder:      obs.NewWithClock(clk),
			SessionTTL:    time.Minute,
			JanitorEvery:  -1,
		})
		if err == nil {
			clk.Advance(2 * time.Minute)
			srv.Sweep()
			srv.Close()
			t.Errorf("id %q in %s: restore accepted it", tc.id, tc.file)
		} else if !strings.Contains(err.Error(), path) {
			t.Errorf("id %q: error %q does not name the file %s", tc.id, err, path)
		}
		if _, err := os.Stat(victim); err != nil {
			t.Errorf("id %q: file outside the checkpoint dir is gone: %v", tc.id, err)
		}
	}
}
