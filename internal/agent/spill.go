package agent

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cabd/httpapi"
	"cabd/internal/dataio"
)

// spill is the bounded disk-backed buffer detections fall into when the
// server is unreachable: each failed flush becomes one NDJSON segment
// file, segments replay strictly in write order once the server is
// back, and the total on-disk size is capped — past the cap the OLDEST
// segments are dropped (and counted), because the newest detections are
// the ones an operator still cares about after a long outage.
type spill struct {
	dir string
	max int64

	seq  int64
	segs []spillSegment
}

type spillSegment struct {
	path  string
	bytes int64
	count int
}

// openSpill prepares dir and reloads any segments a previous process
// left behind, in order.
func openSpill(dir string, max int64) (*spill, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths, err := filepath.Glob(filepath.Join(dir, "spill-*.ndjson"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	s := &spill{dir: dir, max: max}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		n, err := countLines(p)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, spillSegment{path: p, bytes: info.Size(), count: n})
		base := strings.TrimSuffix(filepath.Base(p), ".ndjson")
		if seq, err := strconv.ParseInt(strings.TrimPrefix(base, "spill-"), 10, 64); err == nil && seq >= s.seq {
			s.seq = seq + 1
		}
	}
	return s, nil
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	n := 0
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			n++
		}
	}
	return n, sc.Err()
}

// add writes dets as one new segment and enforces the byte cap,
// dropping oldest segments as needed. It returns how many detections
// the cap discarded.
func (s *spill) add(dets []httpapi.ForwardedDetection) (dropped int, err error) {
	if len(dets) == 0 {
		return 0, nil
	}
	var buf []byte
	for _, d := range dets {
		line, merr := json.Marshal(d)
		if merr != nil {
			return 0, merr
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	path := filepath.Join(s.dir, fmt.Sprintf("spill-%012d.ndjson", s.seq))
	if err := dataio.WriteFileAtomic(path, buf); err != nil {
		return 0, err
	}
	s.seq++
	s.segs = append(s.segs, spillSegment{path: path, bytes: int64(len(buf)), count: len(dets)})
	// Enforce the cap, never dropping the segment just written: a
	// single oversized batch still survives until its replay attempt.
	for len(s.segs) > 1 && s.bytes() > s.max {
		old := s.segs[0]
		if err := os.Remove(old.path); err != nil && !os.IsNotExist(err) {
			return dropped, err
		}
		s.segs = s.segs[1:]
		dropped += old.count
	}
	return dropped, nil
}

// replay feeds spilled segments to send in write order, deleting each
// segment once its batch is acknowledged. It stops at the first send
// failure — order preservation matters more than drain speed — and
// returns how many detections were replayed.
func (s *spill) replay(send func([]httpapi.ForwardedDetection) error) (replayed int, err error) {
	for len(s.segs) > 0 {
		seg := s.segs[0]
		dets, err := readSegment(seg.path)
		if err != nil {
			return replayed, err
		}
		if len(dets) > 0 {
			if err := send(dets); err != nil {
				return replayed, err
			}
		}
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return replayed, err
		}
		s.segs = s.segs[1:]
		replayed += len(dets)
	}
	return replayed, nil
}

func readSegment(path string) ([]httpapi.ForwardedDetection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	var out []httpapi.ForwardedDetection
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var d httpapi.ForwardedDetection
		if err := json.Unmarshal(line, &d); err != nil {
			// Segments are written atomically, so a torn line cannot
			// happen; a malformed one means external corruption. Skip it
			// rather than wedge the replay queue forever.
			continue
		}
		out = append(out, d)
	}
	return out, sc.Err()
}

// pending reports how many detections sit in the buffer.
func (s *spill) pending() int {
	n := 0
	for _, seg := range s.segs {
		n += seg.count
	}
	return n
}

// bytes reports the buffer's on-disk size.
func (s *spill) bytes() int64 {
	var b int64
	for _, seg := range s.segs {
		b += seg.bytes
	}
	return b
}
