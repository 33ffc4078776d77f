package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// clock is the time source of the load generators and the tracer; tests
// substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. Start and End are offsets from the
// tracer's epoch. Parent is the id of the enclosing span (0 for a root);
// spans of one op share Op.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that reads no clock.
type tracer struct {
	clk   clock
	epoch time.Time
	spans []span
}

func newTracer(clk clock) *tracer { return &tracer{clk: clk, epoch: clk.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op,
		Name: name, Start: t.clk.Now().Sub(t.epoch), End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.clk.Now().Sub(t.epoch)
}

// add records a span measured elsewhere: at is the wall time it started.
func (t *tracer) add(name string, parent int, op int64, at time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	s := at.Sub(t.epoch)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op,
		Name: name, Start: s, End: s + d})
	return len(t.spans)
}

// addSequence records children of parent that the program timed itself
// (per-stage durations without start times), laid end to end from at.
// Zero durations are skipped.
func (t *tracer) addSequence(parent int, op int64, at time.Time, names []string, ds []time.Duration) {
	if t == nil {
		return
	}
	for i, d := range ds {
		if d <= 0 {
			continue
		}
		t.add(names[i], parent, op, at, d)
		at = at.Add(d)
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// count once; children reaching outside the parent are clipped to it.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to [lo, hi).
func covered(lo, hi time.Duration, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanTotals sums duration and self time per span name.
type spanTotal struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func spanTotals(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := make(map[string]spanTotal)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalMs += durMs(s.End - s.Start)
		st.SelfMs += durMs(self[s.ID])
		out[s.Name] = st
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
