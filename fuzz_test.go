package cabd

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// bytesToFloats reinterprets fuzz input as a float64 series: every 8-byte
// chunk is one IEEE-754 value, bit patterns included — NaNs, infinities,
// denormals and garbage exponents all come out of the fuzzer this way.
// Length is capped so the fuzzer explores values, not runtime.
func bytesToFloats(data []byte, maxLen int) []float64 {
	n := len(data) / 8
	if n > maxLen {
		n = maxLen
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return out
}

// checkSorted asserts the detection-output contract on fuzz runs.
func checkSorted(t *testing.T, who string, idx []int, n int) {
	t.Helper()
	if !sort.IntsAreSorted(idx) {
		t.Fatalf("%s: indices not sorted: %v", who, idx)
	}
	for _, i := range idx {
		if i < 0 || i >= n {
			t.Fatalf("%s: index %d out of range [0, %d)", who, i, n)
		}
	}
}

// FuzzDetect throws arbitrary bit patterns at the sanitizing Detect entry
// point. The contract under fuzzing: no panic ever escapes, and any
// detections point at valid, sorted positions of the caller's input.
func FuzzDetect(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	seed := make([]byte, 0, 64*8)
	var buf [8]byte
	for i := 0; i < 64; i++ {
		v := math.Sin(float64(i) / 3)
		if i == 20 {
			v = math.NaN()
		}
		if i == 40 {
			v = math.Inf(1)
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		seed = append(seed, buf[:]...)
	}
	f.Add(seed)

	det := New(Options{})
	f.Fuzz(func(t *testing.T, data []byte) {
		values := bytesToFloats(data, 256)
		res := det.Detect(values)
		if res == nil {
			t.Fatal("Detect returned nil result")
		}
		checkSorted(t, "anomalies", res.AnomalyIndices(), len(values))
		checkSorted(t, "changepoints", res.ChangePointIndices(), len(values))
	})
}

// FuzzStreamPush feeds arbitrary bit patterns into the streaming
// detector one observation at a time: Push must intercept every bad
// value, never panic, and only emit detections for positions already
// pushed.
func FuzzStreamPush(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 256))

	f.Fuzz(func(t *testing.T, data []byte) {
		values := bytesToFloats(data, 512)
		d := NewStream(StreamConfig{Window: 64, Hop: 16})
		pushed := 0
		emit := func(dets []StreamDetection) {
			for _, det := range dets {
				if det.Index < 0 || det.Index >= pushed {
					t.Fatalf("stream detection index %d outside pushed range [0, %d)",
						det.Index, pushed)
				}
			}
		}
		for _, v := range values {
			dets := d.Push(v)
			pushed = d.Total()
			emit(dets)
		}
		emit(d.Flush())
		if d.Total()+d.Bad() < len(values) {
			t.Fatalf("accounting hole: %d accepted + %d bad < %d pushed",
				d.Total(), d.Bad(), len(values))
		}
	})
}

// floatsToBytes is bytesToFloats' inverse, for seeding.
func floatsToBytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// FuzzResumeStream restores a fuzzed StreamState, then pushes and
// flushes: a restored state is hostile input like any pushed value. The
// window arrives as raw float bits and Emitted as 8-byte integers. The
// contract: no panic, the restored state is one a live stream could
// hold (0 <= Start and Start + len(Window) == Total), and the stream
// then behaves like a valid one, emitting each index at most once, never
// a negative one, and only inside the restored window or after it.
func FuzzResumeStream(f *testing.F) {
	cfg := StreamConfig{Window: 64, Hop: 16}
	live := NewStream(cfg)
	for i := 0; i < 150; i++ {
		v := math.Sin(float64(i) / 5)
		if i == 97 {
			v = 9
		}
		live.Push(v)
	}
	st := live.State()
	emitted := make([]byte, 8*len(st.Emitted))
	for i, idx := range st.Emitted {
		binary.LittleEndian.PutUint64(emitted[i*8:], uint64(idx))
	}
	pushes := floatsToBytes([]float64{0.1, math.NaN(), -0.3, 7, 0.2, 0.4, -0.1, 0, 0.3, 0.1, -0.2, 0.2, 0.5, 0, 0.1, 0.2, -0.4})
	window := floatsToBytes(st.Window)
	f.Add(window, int64(st.Start), int64(st.Total), int64(st.SinceRun), int64(st.Bad), emitted, st.LastGood, st.HasGood, pushes)
	f.Add(window, int64(st.Start), int64(st.Total), int64(math.MinInt64/2), int64(st.Bad), emitted, st.LastGood, st.HasGood, pushes)
	f.Add(window, int64(math.MaxInt64-10), int64(-1), int64(math.MaxInt64), int64(-5), make([]byte, 64), math.NaN(), true, pushes)
	f.Add([]byte{}, int64(0), int64(0), int64(0), int64(0), []byte{}, 0.0, false, []byte{})

	f.Fuzz(func(t *testing.T, window []byte, start, total, sinceRun, bad int64, emitted []byte, lastGood float64, hasGood bool, pushes []byte) {
		st := StreamState{
			Window: bytesToFloats(window, 256), Start: int(start), Total: int(total),
			SinceRun: int(sinceRun), Bad: int(bad), LastGood: lastGood, HasGood: hasGood,
		}
		for i := 0; i+8 <= len(emitted) && i < 8*64; i += 8 {
			st.Emitted = append(st.Emitted, int(binary.LittleEndian.Uint64(emitted[i:])))
		}
		d := ResumeStream(cfg, st)
		restored := d.State()
		if restored.Start < 0 || restored.Start+len(restored.Window) != restored.Total {
			t.Fatalf("restored start %d, window %d, total %d", restored.Start, len(restored.Window), restored.Total)
		}
		total0 := d.Total()
		seen := map[int]bool{}
		check := func(dets []StreamDetection) {
			span := len(restored.Window) + d.Total() - total0
			for _, det := range dets {
				if det.Index < 0 {
					t.Fatalf("negative index %d (start %d)", det.Index, restored.Start)
				}
				if off := det.Index - restored.Start; off < 0 || off >= span {
					t.Fatalf("detection %d outside the restored window and the %d values pushed after it (start %d)",
						det.Index, d.Total()-total0, restored.Start)
				}
				if seen[det.Index] {
					t.Fatalf("index %d emitted twice", det.Index)
				}
				seen[det.Index] = true
			}
		}
		for _, v := range bytesToFloats(pushes, 256) {
			check(d.Push(v))
		}
		check(d.Flush())
	})
}
