package stream

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"cabd/internal/core"
	"cabd/internal/faultgen"
	"cabd/internal/sanitize"
	"cabd/internal/synth"
)

// goldenPath holds the detections these streams emitted under the
// earlier two-engine detector, whose engines agreed push for push. It is
// a fixture, not a snapshot: never regenerate it to make a change pass,
// because a change that alters it changes what the stream detects.
const goldenPath = "testdata/stream_golden.json"

// goldenEmit is one Push (or the final Flush, Push -1) that emitted
// detections, with exactly what it returned.
type goldenEmit struct {
	Push       int         `json:"push"`
	Detections []Detection `json:"detections"`
}

// goldenStream is one recorded stream.
type goldenStream struct {
	Name  string       `json:"name"`
	Emits []goldenEmit `json:"emits"`
}

// goldenCase is the input and configuration of one golden stream.
type goldenCase struct {
	name string
	cfg  Config
	vals []float64
}

// goldenCases are the pinned streams: the faultgen chaos stream at
// window 256 under both bad-value policies, and one default-config
// stream at the serving default window of 1024.
func goldenCases() []goldenCase {
	s := synth.Generate(synth.Config{N: 1200, Seed: 21, SingleFrac: 0.02, ChangeFrac: 0.01})
	chaos, _ := faultgen.Chaos(rand.New(rand.NewSource(31)), s.Values)
	var out []goldenCase
	for _, p := range []struct {
		name   string
		policy sanitize.Policy
	}{{"chaos/interpolate", sanitize.Interpolate}, {"chaos/drop", sanitize.Drop}} {
		out = append(out, goldenCase{name: p.name, vals: chaos, cfg: Config{
			Window: 256, Hop: 32, Margin: 12, BadValue: p.policy,
			Options: core.Options{Seed: 5},
		}})
	}
	def := synth.Generate(synth.Config{N: 3072, Seed: 41, SingleFrac: 0.02, ChangeFrac: 0.01})
	out = append(out, goldenCase{name: "default/window1024", vals: def.Values})
	return out
}

// recordStream pushes vals through a fresh detector and returns every
// emitting Push, then the Flush.
func recordStream(cfg Config, vals []float64) []goldenEmit {
	d := New(cfg)
	var out []goldenEmit
	for i, v := range vals {
		if dets := d.Push(v); len(dets) > 0 {
			out = append(out, goldenEmit{Push: i, Detections: dets})
		}
	}
	if dets := d.Flush(); len(dets) > 0 {
		out = append(out, goldenEmit{Push: -1, Detections: dets})
	}
	return out
}

// TestStreamMatchesGolden replays the pinned streams and requires every
// push to emit exactly the recorded detections, confidences included.
func TestStreamMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want []goldenStream
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Fatalf("golden holds %d streams, want %d", len(want), len(cases))
	}
	for i, gc := range cases {
		if want[i].Name != gc.name {
			t.Fatalf("golden stream %d is %q, want %q", i, want[i].Name, gc.name)
		}
		if len(want[i].Emits) == 0 {
			t.Fatalf("%s: golden stream emits nothing", gc.name)
		}
		got := recordStream(gc.cfg, gc.vals)
		for k := 0; k < len(got) && k < len(want[i].Emits); k++ {
			if !reflect.DeepEqual(got[k], want[i].Emits[k]) {
				t.Fatalf("%s: emission %d\n got %+v\nwant %+v", gc.name, k, got[k], want[i].Emits[k])
			}
		}
		if len(got) != len(want[i].Emits) {
			t.Fatalf("%s: %d emitting pushes, golden has %d", gc.name, len(got), len(want[i].Emits))
		}
	}
}
