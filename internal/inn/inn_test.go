package inn

import (
	"math/rand"
	"reflect"
	"testing"

	"cabd/internal/series"
)

// example2Points returns the 13-point series of the paper's Example 2 in
// the raw (index, value) embedding the example computes distances over.
func example2Points() [][2]float64 {
	vals := []float64{26.9, 26.8, 27.4, 26.7, 64.5, 65.1, 62.1, 64.4,
		62.2, 62.7, 27.1, 25.2, 25.4}
	pts := make([][2]float64, len(vals))
	for i, v := range vals {
		pts[i] = [2]float64{float64(i), v}
	}
	return pts
}

// TestExample2 reproduces the paper's Example 2: the INN of x4 (the first
// point of the collective anomaly spanning x4..x9) is exactly {x5..x9};
// the search examines and rejects x3/x2 and stops.
func TestExample2(t *testing.T) {
	c := NewComputer(example2Points())
	want := []int{5, 6, 7, 8, 9}
	if got := c.Minimal(4, 6); !reflect.DeepEqual(got, want) {
		t.Errorf("Minimal INN(x4) = %v, want %v", got, want)
	}
	if got := c.Binary(4, 6); !reflect.DeepEqual(got, want) {
		t.Errorf("Binary INN(x4) = %v, want %v", got, want)
	}
	if got := c.MutualSet(4, 6); !reflect.DeepEqual(got, want) {
		t.Errorf("MutualSet INN(x4) = %v, want %v", got, want)
	}
}

// TestExample2MiddleMember checks a point in the middle of the collective
// anomaly: its INN is the rest of the group on both sides.
func TestExample2MiddleMember(t *testing.T) {
	c := NewComputer(example2Points())
	want := []int{4, 5, 6, 8, 9}
	if got := c.Minimal(7, 6); !reflect.DeepEqual(got, want) {
		t.Errorf("Minimal INN(x7) = %v, want %v", got, want)
	}
	if got := c.Binary(7, 6); !reflect.DeepEqual(got, want) {
		t.Errorf("Binary INN(x7) = %v, want %v", got, want)
	}
}

// TestExample2NormalPoint checks that a normal point's INN is its own
// (large) normal cluster, never the anomaly group.
func TestExample2NormalPoint(t *testing.T) {
	c := NewComputer(example2Points())
	got := c.Minimal(1, 6)
	if len(got) == 0 {
		t.Fatal("normal point INN should not be empty")
	}
	for _, j := range got {
		if j >= 4 && j <= 9 {
			t.Errorf("normal point INN contains anomaly member %d", j)
		}
	}
}

func TestSingleAnomalyEmptyINN(t *testing.T) {
	// A lone spike in flat-ish data has an empty (or near-empty) INN at
	// the pruned range: no neighbor reciprocates.
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = 10 + 0.01*float64(i%7)
	}
	vals[30] = 500
	c := FromSeries(series.New("spike", vals))
	got := c.Minimal(30, c.RangeLimit(0))
	if len(got) != 0 {
		t.Errorf("spike INN = %v, want empty", got)
	}
}

func TestCollectiveAnomalyINN(t *testing.T) {
	// A 5-point offset group: the middle member's INN is the other four.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i % 3)
	}
	for i := 40; i < 45; i++ {
		vals[i] = 80
	}
	c := FromSeries(series.New("group", vals))
	got := c.Minimal(42, c.RangeLimit(0))
	want := []int{40, 41, 43, 44}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("group INN = %v, want %v", got, want)
	}
}

func TestWorstCaseFlatLine(t *testing.T) {
	// Section III: for a flat series the unpruned INN of a point can be
	// (nearly) the whole dataset; the 5% prune bounds it.
	vals := make([]float64, 50)
	c := FromSeries(series.New("flat", vals))
	unpruned := c.Minimal(25, 0) // t=0 -> unconstrained (n-1)
	if len(unpruned) < 20 {
		t.Errorf("unpruned flat-line INN size = %d, want large", len(unpruned))
	}
	limit := c.RangeLimit(0)
	pruned := c.Minimal(25, limit)
	if len(pruned) > 2*limit {
		t.Errorf("pruned INN size = %d exceeds 2*limit %d", len(pruned), limit)
	}
}

func TestRangeLimit(t *testing.T) {
	c := NewComputer(make([][2]float64, 100))
	if got := c.RangeLimit(0); got != 5 {
		t.Errorf("RangeLimit(default) = %d, want 5", got)
	}
	if got := c.RangeLimit(0.10); got != 10 {
		t.Errorf("RangeLimit(0.10) = %d, want 10", got)
	}
	small := NewComputer(make([][2]float64, 5))
	if got := small.RangeLimit(0); got != 1 {
		t.Errorf("RangeLimit small = %d, want 1", got)
	}
}

func TestKNNOrderingAndExclusion(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	c := NewComputer(pts)
	nn := c.KNN(1, 2)
	if !reflect.DeepEqual(nn, []int{0, 2}) {
		t.Errorf("KNN(1,2) = %v", nn)
	}
	for _, j := range c.KNN(1, 3) {
		if j == 1 {
			t.Error("KNN returned the query point itself")
		}
	}
}

func TestInTopK(t *testing.T) {
	pts := [][2]float64{{0, 0}, {1, 0}, {5, 0}, {6, 0}}
	c := NewComputer(pts)
	if !c.InTopK(0, 1, 1) {
		t.Error("nearest neighbor not in top-1")
	}
	if c.InTopK(0, 3, 2) {
		t.Error("farthest point should not be in top-2")
	}
}

// Property: Minimal is always a subset of MutualSet (same admission
// condition, contiguity-restricted), and Binary's extent is at least
// Minimal's under the contiguity assumption.
func TestMinimalSubsetOfMutualSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		// Inject one collective anomaly.
		start := 10 + rng.Intn(n-25)
		for i := start; i < start+5; i++ {
			vals[i] += 30
		}
		c := FromSeries(series.New("p", vals))
		tlim := c.RangeLimit(0)
		for probe := 0; probe < 10; probe++ {
			i := rng.Intn(n)
			min := c.Minimal(i, tlim)
			set := map[int]bool{}
			for _, j := range c.MutualSet(i, tlim) {
				set[j] = true
			}
			for _, j := range min {
				if !set[j] {
					t.Fatalf("Minimal member %d of point %d not in MutualSet", j, i)
				}
			}
			bin := c.Binary(i, tlim)
			if len(bin) < len(min) {
				t.Fatalf("Binary extent %d smaller than Minimal %d at point %d",
					len(bin), len(min), i)
			}
		}
	}
}

// Differential: on clean collective-anomaly patterns the binary extent
// covers at least the linear extent per side (binary search returns the
// largest passing offset, the linear scan the first-failure prefix), and
// both cover the whole group from its middle member.
func TestBinaryMatchesMinimalOnGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := 200
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 0.1 * rng.NormFloat64()
		}
		gl := 3 + rng.Intn(6)
		start := 20 + rng.Intn(n-40-gl)
		for i := start; i < start+gl; i++ {
			vals[i] += 50
		}
		c := FromSeries(series.New("p", vals))
		tlim := c.RangeLimit(0)
		for i := start; i < start+gl; i++ {
			min := c.Minimal(i, tlim)
			bin := c.Binary(i, tlim)
			set := map[int]bool{}
			for _, j := range bin {
				set[j] = true
			}
			for _, j := range min {
				if !set[j] {
					t.Fatalf("trial %d point %d: Minimal member %d missing from Binary %v",
						trial, i, j, bin)
				}
			}
		}
		// The middle member's Minimal INN covers the whole group.
		mid := start + gl/2
		members := map[int]bool{}
		for _, j := range c.Minimal(mid, tlim) {
			members[j] = true
		}
		for i := start; i < start+gl; i++ {
			if i != mid && !members[i] {
				t.Fatalf("trial %d: group member %d missing from INN(%d)", trial, i, mid)
			}
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	if got := NewComputer(nil).Minimal(0, 5); got != nil {
		t.Errorf("empty computer INN = %v", got)
	}
	one := NewComputer([][2]float64{{0, 0}})
	if got := one.Minimal(0, 5); got != nil {
		t.Errorf("singleton INN = %v", got)
	}
	two := NewComputer([][2]float64{{0, 0}, {1, 1}})
	got := two.Minimal(0, 1)
	if !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("pair INN = %v, want [1]", got)
	}
}

func BenchmarkMinimalINN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	c := FromSeries(series.New("bench", vals))
	tlim := c.RangeLimit(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Minimal(i%2000, tlim)
	}
}

func BenchmarkBinaryINN(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	c := FromSeries(series.New("bench", vals))
	tlim := c.RangeLimit(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Binary(i%2000, tlim)
	}
}
