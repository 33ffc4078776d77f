package cabd

import (
	"bytes"
	"fmt"
	"testing"

	"cabd/internal/synth"
)

// fingerprint serializes the deterministic surface of a result — indices,
// classes and degradation flags, not wall-time-dependent fields — so runs
// can be compared byte for byte.
func fingerprint(res *Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "strategy=%s degraded=%v reason=%q\n",
		res.Strategy, res.Degraded, res.DegradeReason)
	for _, d := range res.Anomalies {
		fmt.Fprintf(&b, "a %d %s\n", d.Index, d.Subtype)
	}
	for _, d := range res.ChangePoints {
		fmt.Fprintf(&b, "c %d %s\n", d.Index, d.Subtype)
	}
	return b.String()
}

// TestDetectDeterministic runs fixed-seed detection on the 2k synthetic
// fixture repeatedly and demands byte-identical output: the pipeline's
// stochastic components (forest bagging, GMM seeding) are all driven by
// Options.Seed, and the parallel INN scoring must not leak scheduling
// nondeterminism into the result.
func TestDetectDeterministic(t *testing.T) {
	s := synth.YahooLike(100, 2000)
	first := fingerprint(New(Options{Seed: 1}).Detect(s.Values))
	if len(first) == 0 {
		t.Fatal("empty fingerprint")
	}
	if !bytes.Contains([]byte(first), []byte("\na ")) && !bytes.Contains([]byte(first), []byte("\nc ")) {
		t.Fatalf("fixture produced no detections:\n%s", first)
	}
	for run := 2; run <= 4; run++ {
		got := fingerprint(New(Options{Seed: 1}).Detect(s.Values))
		if got != first {
			t.Fatalf("run %d diverged:\n--- run 1\n%s--- run %d\n%s", run, first, run, got)
		}
	}
}

// TestDetectDeterministicWithRecorder verifies that attaching a metrics
// recorder does not perturb detections (observability must be read-only
// with respect to the pipeline's decisions).
func TestDetectDeterministicWithRecorder(t *testing.T) {
	s := synth.YahooLike(100, 2000)
	plain := fingerprint(New(Options{Seed: 1}).Detect(s.Values))
	instrumented := fingerprint(New(Options{Seed: 1, Obs: NewRecorder()}).Detect(s.Values))
	if plain != instrumented {
		t.Fatalf("recorder changed detections:\n--- nil\n%s--- recorder\n%s", plain, instrumented)
	}
}
