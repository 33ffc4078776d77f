package agent

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cabd/httpapi"
)

// srcDirToken stands for the source directory in a fuzzed checkpoint:
// offsets are keyed by source path, and every run's directory differs,
// so the harness swaps the token for the run's directory before the
// agent reads the file.
const srcDirToken = "@SRC@"

// fuzzSource is the small CSV source every run polls: single-digit
// values with one spike, so any offset inside the file starts a parsable
// value unless it sits on or past the final newline.
func fuzzSource() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		v := i % 7
		if i == 30 {
			v = 9
		}
		fmt.Fprintf(&b, "%d\n", v)
	}
	return b.String()
}

// jsonDir is dir as it appears inside a JSON string.
func jsonDir(dir string) []byte {
	b, _ := json.Marshal(dir)
	return b[1 : len(b)-1]
}

// FuzzAgentCheckpoint feeds arbitrary bytes to the agent as its
// checkpoint file (agent.json), then runs New and one PollOnce over a
// small CSV source against an in-test sink that acknowledges every
// detection. The contract: no panic, and when New accepts the file, the
// poll reads the source to its end, whatever offset the file claimed,
// and the source has a stream unless the restored offset already sat on
// or past the final newline (then there was nothing left to read).
func FuzzAgentCheckpoint(f *testing.F) {
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req httpapi.IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_ = json.NewEncoder(w).Encode(httpapi.IngestResponse{Accepted: len(req.Detections)})
	}))
	f.Cleanup(sink.Close)
	src := fuzzSource()

	// Seed: the checkpoint saveCheckpoint wrote after a real poll, with
	// the source directory replaced by the token.
	cfg := baseConfig(f, sink.URL)
	writeFile(f, filepath.Join(cfg.SourceDir, "cpu.csv"), src)
	a, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := a.PollOnce(context.Background()); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(a.checkpointPath())
	if err != nil {
		f.Fatal(err)
	}
	seed := bytes.ReplaceAll(real, jsonDir(cfg.SourceDir), []byte(srcDirToken))
	if !bytes.Contains(seed, []byte(srcDirToken+"/cpu.csv")) || !bytes.Contains(seed, []byte(`"cpu":`)) {
		f.Fatalf("checkpoint %s lacks the source offset or its stream", real)
	}
	f.Add(seed)
	f.Add([]byte(`{"offsets":{"` + srcDirToken + `/cpu.csv":-5}}`))
	f.Add([]byte(`{"offsets":{"` + srcDirToken + `/cpu.csv":1000000}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := baseConfig(t, sink.URL)
		path := filepath.Join(cfg.SourceDir, "cpu.csv")
		writeFile(t, path, src)
		cp := bytes.ReplaceAll(data, []byte(srcDirToken), jsonDir(cfg.SourceDir))
		writeFile(t, filepath.Join(cfg.StateDir, "agent.json"), string(cp))
		a, err := New(cfg)
		if err != nil {
			return
		}
		restored := a.offsets[path]
		if err := a.PollOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		size := int64(len(src))
		if off := a.offsets[path]; off != size {
			t.Fatalf("offset after the poll = %d (restored %d), want the file size %d", off, restored, size)
		}
		if a.streams["cpu"] == nil && (restored < size-1 || restored > size) {
			t.Fatalf("no stream after the poll (restored offset %d, file size %d)", restored, size)
		}
	})
}
