package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cabd/internal/obs"
	"cabd/internal/series"
	"cabd/internal/stats"
)

// stormLabeler is a trivial concurrent-safe oracle: spikes planted every
// 45 points are anomalies, everything else is normal.
type stormLabeler struct{}

func (stormLabeler) Label(i int) series.Label {
	if i >= 60 && i < 660 && (i-60)%45 == 0 {
		return series.SingleAnomaly
	}
	return series.Normal
}

// TestConcurrentDetectSharedRecorder hammers the full pipeline — scoreAll
// worker pools, feature-matrix pool churn, parallel forest training,
// batch classification, the active-learning retrain loop — from many
// goroutines sharing one obs.Recorder. Its job is to give the race
// detector (make race) surface area on everything the raw-speed pass
// made concurrent: the pooled featMatrix handoff, the resolved-strategy
// publication, the per-tree rng fan-out, and the recorder's counters.
// It also cross-checks the differential contract under contention: every
// goroutine's detections must equal the sequential-oracle result.
func TestConcurrentDetectSharedRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	vals := noisyBase(rng, 700)
	for i := 60; i < 660; i += 45 {
		vals[i] = 22 + rng.NormFloat64()
	}
	std := stats.Standardize(vals)
	mk := func(name string) *series.Series {
		return &series.Series{Name: name, Values: std}
	}

	rec := obs.New()
	oracle := stormLabeler{}

	// Sequential-oracle baseline, computed once before the storm.
	prev := runtime.GOMAXPROCS(1)
	base := NewDetector(WithSeqOracle(Options{Seed: 1, Obs: rec})).Detect(mk("base"))
	runtime.GOMAXPROCS(prev)

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d := NewDetector(Options{Seed: 1, Obs: rec})
				var res *Result
				if g%2 == 0 {
					res = d.Detect(mk("storm"))
				} else {
					res = d.DetectActive(mk("storm"), oracle)
				}
				if g%2 == 0 && len(res.Candidates) != len(base.Candidates) {
					errs <- "concurrent run diverged from baseline candidate count"
					return
				}
				if g%2 == 0 {
					for i := range res.Candidates {
						if res.Candidates[i].Class != base.Candidates[i].Class {
							errs <- "concurrent run diverged from sequential-oracle classes"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
