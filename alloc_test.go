package cabd

import (
	"testing"

	"cabd/internal/synth"
)

// TestDetectAllocBudget is the allocation contract of a batch Detect. The
// scoring stage allocates no object per point or per window: one KD-tree
// item array, no rank memo, and SAX tables numbered by integer word id.
// What remains grows with the candidate count, so a fourfold longer
// series stays inside half again the budget. AllocsPerRun measures at
// GOMAXPROCS 1.
func TestDetectAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		n      int
		budget float64
	}{{2000, 1000}, {8000, 1500}} {
		s := synth.Generate(synth.Config{
			N: tc.n, Seed: 1,
			SingleFrac:     0.004,
			CollectiveFrac: 0.010,
			ChangeFrac:     0.002,
			TrendSlope:     4.0 / float64(tc.n),
		})
		det := New(Options{})
		if res := det.Detect(s.Values); res == nil || len(res.Anomalies) == 0 {
			t.Fatalf("n=%d: no anomalies detected; the budget would measure an empty run", tc.n)
		}
		if allocs := testing.AllocsPerRun(3, func() { det.Detect(s.Values) }); allocs > tc.budget {
			t.Errorf("n=%d: Detect made %v allocations, budget %v", tc.n, allocs, tc.budget)
		}
	}
}
