package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cabd/internal/faultgen"
	"cabd/internal/obs"
)

// goldenSnapshot builds a fully deterministic RuntimeSnapshot: the obs
// part comes from direct Observe/Add calls (no clock), so the serialized
// bytes are stable across machines and runs.
func goldenSnapshot() RuntimeSnapshot {
	rec := obs.New()
	rec.Add(obs.CounterCandidates, 12)
	rec.Add(obs.CounterOracleQueries, 4)
	rec.Degraded("candidate count 5000 exceeds bound 4096")
	rec.SetGauge(obs.GaugeStreamWindow, 256)
	rec.Observe(obs.StageINNScore, 5*time.Millisecond)
	rec.Observe(obs.StageINNScore, 20*time.Millisecond)
	rec.Observe(obs.StageSanitize, 3*time.Microsecond)
	snap := rec.Snapshot()
	return RuntimeSnapshot{
		Fig11:  []Fig11Point{{Algorithm: "CABD (optimized)", N: 2000, Seconds: 0.125}},
		Stages: []StageRow{{N: 2000, Stage: "inn_score", Seconds: 0.025, Frac: 0.5}},
		Obs:    &snap,
	}
}

// TestRuntimeSnapshotGolden pins the exact on-disk shape of
// BENCH_runtime.json — counters, degrade-reason labels, cumulative
// histogram buckets — against a checked-in golden file, then round-trips
// the bytes back through json.Unmarshal and requires structural equality.
func TestRuntimeSnapshotGolden(t *testing.T) {
	snap := goldenSnapshot()
	path := filepath.Join(t.TempDir(), "runtime.json")
	if err := WriteRuntimeJSON(path, snap); err != nil {
		t.Fatalf("WriteRuntimeJSON: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "runtime_snapshot.golden.json")
	if os.Getenv("CABD_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with CABD_UPDATE_GOLDEN=1 go test -run TestRuntimeSnapshotGolden): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("snapshot JSON drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	var back RuntimeSnapshot
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Errorf("round trip lost data:\ngot  %+v\nwant %+v", back, snap)
	}
	if back.Empty() {
		t.Error("round-tripped snapshot reads as empty")
	}
	if (RuntimeSnapshot{}).Empty() != true {
		t.Error("zero snapshot must be Empty")
	}
}

// TestStageProfileShape runs the instrumented sweep at a small size and
// checks the rows are internally consistent: known stage names, fractions
// in [0,1] summing to ~1 per size, and a recorder snapshot whose counters
// agree with the sweep.
func TestStageProfileShape(t *testing.T) {
	rows, snap := StageProfile([]int{800})
	if len(rows) == 0 {
		t.Fatal("no stage rows")
	}
	valid := map[string]bool{}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		valid[s.String()] = true
	}
	fracSum := 0.0
	seen := map[string]bool{}
	for _, r := range rows {
		if r.N != 800 {
			t.Errorf("unexpected size %d", r.N)
		}
		if !valid[r.Stage] {
			t.Errorf("unknown stage %q", r.Stage)
		}
		if r.Seconds < 0 || r.Frac < 0 || r.Frac > 1 {
			t.Errorf("out-of-range row %+v", r)
		}
		fracSum += r.Frac
		seen[r.Stage] = true
	}
	if math.Abs(fracSum-1) > 1e-9 {
		t.Errorf("stage fractions sum to %v, want 1", fracSum)
	}
	if !seen["inn_score"] || !seen["classify"] {
		t.Errorf("core stages missing from profile: %v", seen)
	}
	if snap == nil {
		t.Fatal("nil recorder snapshot")
	}
	if snap.Counters["candidates_total"] <= 0 {
		t.Errorf("sweep recorded no candidates: %v", snap.Counters)
	}
	hasINN := false
	for _, st := range snap.Stages {
		if st.Stage == "inn_score" && st.Count > 0 {
			hasINN = true
		}
	}
	if !hasINN {
		t.Error("recorder snapshot missing inn_score histogram")
	}
}

// TestChaosSweepContainsFaults verifies the fault-injection sweep covers
// every (family, fault) cell, never lets a panic escape, and actually
// intercepts bad values for the NaN/Inf fault families.
func TestChaosSweepContainsFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds-long")
	}
	rows := Chaos(tiny)
	wantRows := 3 * len(faultgen.Kinds())
	if len(rows) != wantRows {
		t.Fatalf("chaos rows = %d, want %d", len(rows), wantRows)
	}
	families := map[string]bool{}
	anyBad := false
	for _, r := range rows {
		families[r.Family] = true
		if r.Panicked {
			t.Errorf("%s/%s: pipeline panicked", r.Family, r.Fault)
		}
		if r.Bad > 0 {
			anyBad = true
		}
		if r.Elapsed < 0 {
			t.Errorf("%s/%s: negative elapsed", r.Family, r.Fault)
		}
	}
	if len(families) != 3 {
		t.Errorf("families covered = %v, want 3", families)
	}
	if !anyBad {
		t.Error("no fault family produced intercepted bad values")
	}
}

// TestMultiDatasetGroundTruth pins the synthetic multivariate generator:
// equal-length dimensions, exactly 3 cross-dimension faults plus one
// single-dimension glitch per dimension, and labels that sit on actual
// injected deviations.
func TestMultiDatasetGroundTruth(t *testing.T) {
	n, d := 600, 3
	s := multiDataset(42, n, d)
	if len(s.Dims) != d || s.Len() != n {
		t.Fatalf("shape = %dx%d, want %dx%d", len(s.Dims), s.Len(), d, n)
	}
	for k, dim := range s.Dims {
		if len(dim) != n {
			t.Errorf("dim %d length %d", k, len(dim))
		}
	}
	anoms := s.AnomalyIndices()
	if len(anoms) != 3+d {
		t.Fatalf("labeled anomalies = %d, want %d", len(anoms), 3+d)
	}
	// Cross-dimension faults bump every dimension at n/6, n/2, 5n/6.
	for _, p := range []int{n / 6, n / 2, 5 * n / 6} {
		if s.LabelAt(p) == 0 {
			t.Errorf("shared fault at %d unlabeled", p)
		}
	}
	// Labeled points must deviate visibly in at least one dimension
	// relative to their neighbors.
	for _, p := range anoms {
		if p == 0 || p == n-1 {
			continue
		}
		dev := 0.0
		for _, dim := range s.Dims {
			local := math.Abs(dim[p] - (dim[p-1]+dim[p+1])/2)
			if local > dev {
				dev = local
			}
		}
		if dev < 1 {
			t.Errorf("labeled point %d shows no injected deviation (max %v)", p, dev)
		}
	}
}
