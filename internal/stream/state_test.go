package stream

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"cabd/internal/core"
	"cabd/internal/synth"
)

// streamCfg is a small, fast configuration shared by the state tests.
func streamCfg() Config {
	return Config{
		Window:  128,
		Hop:     16,
		Margin:  8,
		Options: core.Options{Seed: 5},
	}
}

// TestStateResumeEquivalence is the checkpoint contract: push half a
// series, snapshot through a JSON round trip, resume, push the rest —
// and every downstream detection (and every counter) must match the
// uninterrupted run exactly.
func TestStateResumeEquivalence(t *testing.T) {
	s := synth.Generate(synth.Config{N: 600, Seed: 9, SingleFrac: 0.02, ChangeFrac: 0.01})
	vals := s.Values
	vals[100] = math.NaN() // exercise the imputation state too
	cut := len(vals) / 2

	full := New(streamCfg())
	var wantTail []Detection
	for i, v := range vals {
		dets := full.Push(v)
		if i >= cut {
			wantTail = append(wantTail, dets...)
		}
	}
	wantTail = append(wantTail, full.Flush()...)

	half := New(streamCfg())
	for _, v := range vals[:cut] {
		half.Push(v)
	}
	buf, err := json.Marshal(half.State())
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var st State
	if err := json.Unmarshal(buf, &st); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	resumed := Resume(streamCfg(), st)

	var gotTail []Detection
	for _, v := range vals[cut:] {
		gotTail = append(gotTail, resumed.Push(v)...)
	}
	gotTail = append(gotTail, resumed.Flush()...)

	if !reflect.DeepEqual(gotTail, wantTail) {
		t.Fatalf("resumed tail detections diverged:\ngot  %v\nwant %v", gotTail, wantTail)
	}
	if resumed.Total() != full.Total() || resumed.Bad() != full.Bad() {
		t.Fatalf("counters diverged: total %d/%d bad %d/%d",
			resumed.Total(), full.Total(), resumed.Bad(), full.Bad())
	}
}

// TestStateCanonical: Emitted is sorted and the snapshot is
// insensitive to map iteration order.
func TestStateCanonical(t *testing.T) {
	d := New(streamCfg())
	d.emitted[42] = true
	d.emitted[7] = true
	d.emitted[99] = true
	st := d.State()
	if !reflect.DeepEqual(st.Emitted, []int{7, 42, 99}) {
		t.Fatalf("emitted not canonical: %v", st.Emitted)
	}
}

// TestStateEmptyRoundTrip: a fresh detector's state resumes to a
// working fresh detector.
func TestStateEmptyRoundTrip(t *testing.T) {
	d := Resume(streamCfg(), New(streamCfg()).State())
	if d.Total() != 0 || d.Bad() != 0 {
		t.Fatalf("fresh resume has counters: total %d bad %d", d.Total(), d.Bad())
	}
	if out := d.Push(1.0); out != nil {
		t.Fatalf("first push emitted %v", out)
	}
}

// TestResumeRepairsWindow: Resume holds a restored window to Push's value
// test. Bad values take the nearest good value before them (after them
// when they lead), count as bad, and leave the stream position alone; a
// window with no good value is dropped with Start moved past it; a bad
// LastGood is forgotten.
func TestResumeRepairsWindow(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name      string
		window    []float64
		lastGood  float64
		want      []float64
		wantStart int
		wantBad   int
		wantGood  bool
	}{
		{"clean", []float64{1, 2, 3}, 3, []float64{1, 2, 3}, 10, 0, true},
		{"leading, inner and trailing", []float64{nan, -inf, 1, 2, inf, 3, 1e300},
			3, []float64{1, 1, 1, 2, 2, 3, 3}, 10, 4, true},
		{"no good value", []float64{nan, inf, -1e200}, 7, nil, 13, 3, true},
		{"bad last good", []float64{1, 2}, 1e300, []float64{1, 2}, 10, 0, false},
	}
	for _, tc := range cases {
		st := State{Window: append([]float64(nil), tc.window...), Start: 10, Total: 10 + len(tc.window),
			Bad: 1, LastGood: tc.lastGood, HasGood: true, Emitted: []int{11}}
		got := Resume(streamCfg(), st).State()
		if !reflect.DeepEqual(got.Window, tc.want) || got.Start != tc.wantStart || got.Bad != 1+tc.wantBad ||
			got.Total != st.Total || got.HasGood != tc.wantGood {
			t.Errorf("%s: window %v start %d bad %d total %d has-good %v; want %v, %d, %d, %d, %v",
				tc.name, got.Window, got.Start, got.Bad, got.Total, got.HasGood,
				tc.want, tc.wantStart, 1+tc.wantBad, st.Total, tc.wantGood)
		}
	}
}

// TestResumeCorruptCountersStillEmit: a checkpoint whose SinceRun never
// reaches Hop, or whose Emitted list covers detections still to come,
// used to silence the resumed stream. Over the 1,572 points after the
// cut the valid state emits 29 detections; with such a SinceRun no hop
// fired and only the closing Flush emitted (3), and with such an
// Emitted list nothing was emitted. Each corrupt state must now emit
// exactly what its nearest valid state does.
func TestResumeCorruptCountersStillEmit(t *testing.T) {
	vals := synth.YahooLike(41, 3072).Values
	cfg := Config{Window: 256, Hop: 32}
	half := New(cfg)
	for _, v := range vals[:1500] {
		half.Push(v)
	}
	valid := half.State()
	tail := func(st State) []Detection {
		d := Resume(cfg, st)
		var out []Detection
		for _, v := range vals[1500:] {
			out = append(out, d.Push(v)...)
		}
		return append(out, d.Flush()...)
	}
	ahead := append([]int(nil), valid.Emitted...)
	for i := 0; i < 5000; i++ {
		ahead = append(ahead, valid.Total+i)
	}
	cases := []struct {
		name             string
		corrupt, nearest func(*State)
	}{
		{"negative since-run",
			func(st *State) { st.SinceRun = math.MinInt64 / 2 },
			func(st *State) { st.SinceRun = 0 }},
		{"since-run overflowing at the next push",
			func(st *State) { st.SinceRun = math.MaxInt },
			func(st *State) { st.SinceRun = cfg.Hop }},
		{"emitted ahead of the window",
			func(st *State) { st.Emitted = ahead },
			func(*State) {}},
	}
	for _, tc := range cases {
		bad, near := valid, valid
		tc.corrupt(&bad)
		tc.nearest(&near)
		want := tail(near)
		if len(want) == 0 {
			t.Fatalf("%s: the valid state emits nothing, so the case proves nothing", tc.name)
		}
		if got := tail(bad); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d detections after the cut, want the valid state's %d", tc.name, len(got), len(want))
		}
	}
}

// TestResumeKeepsValidState: Resume leaves every valid state as it is,
// from warm-up (SinceRun above Hop while the window half-fills) through
// the steady state.
func TestResumeKeepsValidState(t *testing.T) {
	vals := synth.YahooLike(41, 700).Values
	for _, cfg := range []Config{streamCfg(), {Window: 256, Hop: 300}} {
		d := New(cfg)
		for i, v := range vals {
			d.Push(v)
			if i%37 != 0 {
				continue
			}
			st := d.State()
			if got := Resume(cfg, st).State(); !reflect.DeepEqual(got, st) {
				t.Fatalf("window %d hop %d, after %d pushes: resumed state %+v, want %+v", cfg.Window, cfg.Hop, i+1, got, st)
			}
		}
	}
}
