// Package streambench measures the streaming detection path: per-point
// cost per window size and its flatness over stream position, the
// checkpoint/resume contract (a stream resumed from a JSON-round-tripped
// State emits what the uninterrupted stream emits), many-stream memory
// bounds, and the server's stream registry over loopback HTTP. It lives
// beside internal/experiments because it imports the cabd facade and
// internal/server.
package streambench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sync"

	"cabd"
	"cabd/client"
	"cabd/internal/faultgen"
	"cabd/internal/obs"
	"cabd/internal/server"
	"cabd/internal/synth"
)

// clk is the package time source, so the deterministic-clock harness of
// internal/experiments applies to this benchmark too.
var clk obs.Clock = obs.Wall

func fprintf(w io.Writer, format string, args ...interface{}) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// StreamBenchConfig parameterizes the streaming benchmark. Zero-valued
// fields take smoke-scale defaults.
type StreamBenchConfig struct {
	// Windows are the analysis-window sizes of the per-point cost leg
	// (default 64, 128, 256).
	Windows []int
	// HopsPer sets the cost leg's stream length as Window*HopsPer
	// (default 12), long enough that steady-state hops dominate.
	HopsPer int
	// Streams and PerStream size the many-stream scale leg: Streams
	// live detectors (default 192; -full runs 100000) each fed
	// PerStream observations round-robin (default 96).
	Streams   int
	PerStream int
	// Registry and Conc size the HTTP registry leg: Registry streams
	// (default 48) pushed by Conc concurrent clients (default 8).
	Registry int
	Conc     int
}

func (c StreamBenchConfig) defaults() StreamBenchConfig {
	if len(c.Windows) == 0 {
		c.Windows = []int{64, 128, 256}
	}
	if c.HopsPer <= 0 {
		c.HopsPer = 12
	}
	if c.Streams <= 0 {
		c.Streams = 192
	}
	if c.PerStream <= 0 {
		c.PerStream = 96
	}
	if c.Registry <= 0 {
		c.Registry = 48
	}
	if c.Conc <= 0 {
		c.Conc = 8
	}
	return c
}

// CostRow is one window size of the cost leg.
type CostRow struct {
	Window int `json:"window"`
	Points int `json:"points"`
	// UsPerPoint is the mean per-point cost in microseconds.
	UsPerPoint float64 `json:"us_per_point"`
	// FirstHalfUs and SecondHalfUs split the run by stream position:
	// near-equal halves show per-point work does not grow with stream
	// length.
	FirstHalfUs  float64 `json:"first_half_us"`
	SecondHalfUs float64 `json:"second_half_us"`
	// Detections counts the uninterrupted run's emitted detections.
	// ResumeEqual is the checkpoint verdict: a second run checkpointed
	// at the halfway point (State through JSON, then ResumeStream)
	// emitted exactly the same detections.
	Detections  int  `json:"detections"`
	ResumeEqual bool `json:"resume_equal"`
}

// ScaleResult is the many-stream leg: memory and throughput with
// Streams live detectors fed round-robin.
type ScaleResult struct {
	Streams        int     `json:"streams"`
	PerStream      int     `json:"per_stream"`
	Window         int     `json:"window"`
	Hop            int     `json:"hop"`
	BytesPerStream int64   `json:"bytes_per_stream"`
	PointsPerSec   float64 `json:"points_per_sec"`
	Detections     int     `json:"detections"`
}

// RegistryResult is the HTTP leg: concurrent NDJSON ingest through the
// server's stream registry.
type RegistryResult struct {
	Streams      int     `json:"streams"`
	Concurrency  int     `json:"concurrency"`
	Points       int     `json:"points"`
	PointsPerSec float64 `json:"points_per_sec"`
	Errors       int     `json:"errors"`
	Shed         int64   `json:"shed"`
	Detections   int     `json:"detections"`
}

// StreamResult is the machine-readable streaming benchmark that
// cmd/cabd-bench emits as BENCH_stream.json.
type StreamResult struct {
	Cost     []CostRow      `json:"cost"`
	Scale    ScaleResult    `json:"scale"`
	Registry RegistryResult `json:"registry"`
}

// chaosStream builds a deterministic corrupted test stream: a synthetic
// labeled series run through the fault injector, so the detector sees
// NaNs, spikes and stuck-at runs on top of real anomalies.
func chaosStream(seed int64, n int) []float64 {
	s := synth.YahooLike(seed, n)
	rng := rand.New(rand.NewSource(seed * 7919))
	vals, _ := faultgen.Chaos(rng, s.Values)
	return vals
}

// StreamBench runs the streaming benchmark.
func StreamBench(cfg StreamBenchConfig) StreamResult {
	cfg = cfg.defaults()
	var res StreamResult
	for _, w := range cfg.Windows {
		res.Cost = append(res.Cost, costLeg(w, w*cfg.HopsPer))
	}
	res.Scale = scaleLeg(cfg.Streams, cfg.PerStream)
	res.Registry = registryLeg(cfg.Registry, cfg.Conc)
	return res
}

// costLeg times one corrupted stream at one window size, then replays
// it with a checkpoint at the halfway point: the first half goes into a
// fresh detector, its State makes a JSON round trip into ResumeStream,
// and the rest goes into the resumed detector. Both runs must emit the
// same detections — the contract the agent's crash recovery rests on.
func costLeg(window, points int) CostRow {
	row := CostRow{Window: window, Points: points}
	vals := chaosStream(11, points)
	cfg := cabd.StreamConfig{
		Window:  window,
		Hop:     window / 8,
		Margin:  window / 16,
		Options: cabd.Options{Seed: 42},
	}

	d := cabd.NewStream(cfg)
	var want []cabd.StreamDetection
	half := len(vals) / 2
	t0 := clk.Now()
	for _, v := range vals[:half] {
		want = append(want, d.Push(v)...)
	}
	t1 := clk.Now()
	for _, v := range vals[half:] {
		want = append(want, d.Push(v)...)
	}
	t2 := clk.Now()
	want = append(want, d.Flush()...)
	row.FirstHalfUs = t1.Sub(t0).Seconds() * 1e6 / float64(half)
	row.SecondHalfUs = t2.Sub(t1).Seconds() * 1e6 / float64(len(vals)-half)
	row.UsPerPoint = t2.Sub(t0).Seconds() * 1e6 / float64(len(vals))
	row.Detections = len(want)

	got, err := resumedRun(cfg, vals, half)
	row.ResumeEqual = err == nil && reflect.DeepEqual(got, want)
	return row
}

// resumedRun pushes vals[:cut] into a fresh detector, checkpoints it
// through JSON, and pushes the rest into the resumed detector; it
// returns every detection both detectors emitted, Flush included.
func resumedRun(cfg cabd.StreamConfig, vals []float64, cut int) ([]cabd.StreamDetection, error) {
	d := cabd.NewStream(cfg)
	var out []cabd.StreamDetection
	for _, v := range vals[:cut] {
		out = append(out, d.Push(v)...)
	}
	buf, err := json.Marshal(d.State())
	if err != nil {
		return nil, err
	}
	var st cabd.StreamState
	if err := json.Unmarshal(buf, &st); err != nil {
		return nil, err
	}
	r := cabd.ResumeStream(cfg, st)
	for _, v := range vals[cut:] {
		out = append(out, r.Push(v)...)
	}
	return append(out, r.Flush()...), nil
}

// scaleLeg holds Streams live detectors and feeds them
// round-robin — the worst interleaving for cache locality and the honest
// shape of a many-stream deployment. Heap growth is measured across the
// whole leg and amortized per stream.
func scaleLeg(streams, perStream int) ScaleResult {
	const window, hop = 64, 32
	res := ScaleResult{Streams: streams, PerStream: perStream, Window: window, Hop: hop}
	base := chaosStream(5, perStream)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	dets := make([]*cabd.StreamDetector, streams)
	for i := range dets {
		dets[i] = cabd.NewStream(cabd.StreamConfig{
			Window:  window,
			Hop:     hop,
			Margin:  hop / 4,
			Options: cabd.Options{Seed: 42},
		})
	}
	t0 := clk.Now()
	for p := 0; p < perStream; p++ {
		// The chaos injector may drop observations, so cycle the base; a
		// planted spike every 23rd point guarantees detectable errors.
		v := base[p%len(base)]
		if p%23 == 11 {
			v += 60
		}
		for s, d := range dets {
			// A small per-stream offset keeps the streams distinct without
			// changing their shape (the pipeline is affine-invariant).
			res.Detections += len(d.Push(v + float64(s%7)))
		}
	}
	for _, d := range dets {
		res.Detections += len(d.Flush())
	}
	elapsed := clk.Now().Sub(t0).Seconds()

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 0 {
		res.BytesPerStream = grew / int64(streams)
	}
	runtime.KeepAlive(dets)
	if elapsed > 0 {
		res.PointsPerSec = float64(streams*perStream) / elapsed
	}
	return res
}

// registryLeg drives the server's stream registry over loopback HTTP:
// Conc clients push NDJSON batches into Registry distinct streams, then
// close them all.
func registryLeg(streams, conc int) RegistryResult {
	res := RegistryResult{Streams: streams, Concurrency: conc}
	srv, _ := server.New(server.Config{MaxStreams: streams + 8, JanitorEvery: -1})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	cl := client.New(ts.URL)

	const batches, batch = 6, 16
	// Clean values only: JSON has no NaN/Inf literal, so corrupted
	// observations cannot travel on this wire — bad-value handling is
	// covered by the in-process legs and the server's own tests.
	vals := synth.YahooLike(3, batches*batch).Values
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := clk.Now()
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := c; s < streams; s += conc {
				id := fmt.Sprintf("tenant-%d/stream-%d", c, s)
				for b := 0; b < batches; b++ {
					out, err := cl.StreamPush(context.Background(), id, vals[b*batch:(b+1)*batch])
					mu.Lock()
					if err != nil {
						res.Errors++
					} else {
						res.Points += out.Accepted
						res.Detections += len(out.Detections)
					}
					mu.Unlock()
				}
				out, err := cl.StreamClose(context.Background(), id)
				mu.Lock()
				if err != nil {
					res.Errors++
				} else {
					res.Detections += len(out.Detections)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if elapsed := clk.Now().Sub(t0).Seconds(); elapsed > 0 {
		res.PointsPerSec = float64(res.Points) / elapsed
	}
	res.Shed = srv.Recorder().Snapshot().Counters[obs.CounterHTTPShed.String()]
	return res
}

// PrintStream renders the streaming benchmark.
func PrintStream(w io.Writer, r StreamResult) {
	fprintf(w, "Streaming benchmark: per-point cost and checkpoint/resume equality\n")
	fprintf(w, "%8s %8s %10s %10s %10s %6s %7s\n",
		"window", "points", "us/pt", "1st-half", "2nd-half", "dets", "resume")
	for _, c := range r.Cost {
		resume := "equal"
		if !c.ResumeEqual {
			resume = "DIFF"
		}
		fprintf(w, "%8d %8d %10.2f %10.2f %10.2f %6d %7s\n",
			c.Window, c.Points, c.UsPerPoint, c.FirstHalfUs, c.SecondHalfUs,
			c.Detections, resume)
	}
	fprintf(w, "scale: %d streams x %d points (window %d hop %d): %.0f pts/s, %d B/stream, %d detections\n",
		r.Scale.Streams, r.Scale.PerStream, r.Scale.Window, r.Scale.Hop,
		r.Scale.PointsPerSec, r.Scale.BytesPerStream, r.Scale.Detections)
	fprintf(w, "registry: %d streams x %d clients over HTTP: %d points at %.0f pts/s, %d errors, %d shed, %d detections\n",
		r.Registry.Streams, r.Registry.Concurrency, r.Registry.Points,
		r.Registry.PointsPerSec, r.Registry.Errors, r.Registry.Shed, r.Registry.Detections)
}

// WriteStreamJSON writes the streaming benchmark to path as indented
// JSON.
func WriteStreamJSON(path string, r StreamResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
