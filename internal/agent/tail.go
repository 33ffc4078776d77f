package agent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// tailing: sources are append-only files in SourceDir — one stream per
// file, named after the base name without extension. The agent reads
// only complete lines past its checkpointed byte offset, so a producer
// crash mid-line (or the agent racing a partial write) never corrupts a
// value: the torn tail is simply re-read next poll once the newline
// lands.

// sourceExts are the recognized source formats.
var sourceExts = map[string]bool{".csv": true, ".ndjson": true}

// scanSources lists the source files under dir in sorted order.
func scanSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !sourceExts[strings.ToLower(filepath.Ext(e.Name()))] {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// streamName maps a source path to its stream name.
func streamName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// readNewValues reads the complete lines of path past offset off and
// parses them as observations, returning the values and the new offset
// (which stops before any trailing partial line). A file shorter than
// the checkpointed offset was rotated or truncated, and a negative
// offset is corrupt: either way the offset resets and the file is
// re-read from the top — redelivered detections deduplicate
// server-side, which is exactly what the idempotency keys are for.
func readNewValues(path string, off int64) (vals []float64, newOff int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, off, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, off, err
	}
	if off < 0 || info.Size() < off {
		off = 0 // corrupt offset, or rotation/truncation: start over
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, off, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, off, err
	}
	csv := strings.EqualFold(filepath.Ext(path), ".csv")
	newOff = off
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // partial tail: wait for the newline
		}
		line := strings.TrimSpace(string(data[:nl]))
		data = data[nl+1:]
		newOff += int64(nl) + 1
		if line == "" {
			continue
		}
		v, ok := parseSourceLine(line, csv)
		if !ok {
			continue // header or comment line
		}
		vals = append(vals, v)
	}
	return vals, newOff, nil
}

// parseSourceLine extracts one observation. CSV lines yield their last
// field (timestamp,value layouts and single-column files both work);
// NDJSON lines are a bare number or {"v": number}. Lines that parse as
// neither — headers, comments — are skipped rather than fatal: a
// collector that dies on the first header row collects nothing.
func parseSourceLine(line string, csv bool) (float64, bool) {
	if csv {
		fields := strings.Split(line, ",")
		last := strings.TrimSpace(fields[len(fields)-1])
		v, err := strconv.ParseFloat(last, 64)
		return v, err == nil
	}
	var v float64
	if err := json.Unmarshal([]byte(line), &v); err == nil {
		return v, true
	}
	var obj struct {
		V *float64 `json:"v"`
	}
	if err := json.Unmarshal([]byte(line), &obj); err == nil && obj.V != nil {
		return *obj.V, true
	}
	return 0, false
}

// detectionKey builds the idempotency key for one detection: the same
// agent re-deriving the same detection after a crash produces the same
// key, so the server counts it once.
func detectionKey(agent, stream string, index int) string {
	return fmt.Sprintf("%s/%s/%d", agent, stream, index)
}
