package forest

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds returns n random seeds spanning all of int64 plus the
// edges of math/rand's seed normalization.
func sourceSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, 7 * int32max,
		int32max - 1, int32max + 1, math.MinInt64, math.MaxInt64,
	}
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand is the contract of the division-free
// source: through rand.New, the first 2×607 draws of every kind the
// forest (and rand.Rand) uses equal math/rand's for the same seed,
// including after a reseed of a used register.
func TestSourceMatchesMathRand(t *testing.T) {
	draws := map[string]func(r *rand.Rand) uint64{
		"Uint64":    func(r *rand.Rand) uint64 { return r.Uint64() },
		"Int63":     func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
		"Intn(64)":  func(r *rand.Rand) uint64 { return uint64(r.Intn(64)) },
		"Intn(175)": func(r *rand.Rand) uint64 { return uint64(r.Intn(175)) },
		"Float64":   func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	}
	got, want := rand.New(&source{}), rand.New(rand.NewSource(0))
	for _, seed := range sourceSeeds(1000) {
		for name, draw := range draws {
			got.Seed(seed)
			want.Seed(seed)
			for j := 0; j < 2*rngLen; j++ {
				if g, w := draw(got), draw(want); g != w {
					t.Fatalf("seed %d, %s draw %d: got %#x, math/rand %#x", seed, name, j, g, w)
				}
			}
		}
	}
}

// TestSourceSeedAllocFree: reseeding is the per-tree cost of training
// and must not allocate.
func TestSourceSeedAllocFree(t *testing.T) {
	s := &source{}
	seed := int64(1)
	if allocs := testing.AllocsPerRun(100, func() { s.Seed(seed); seed++ }); allocs != 0 {
		t.Fatalf("Seed allocates %v times per call", allocs)
	}
}

// BenchmarkReseed times one reseed of the division-free source against
// math/rand's Seed, the per-tree cost it replaces.
func BenchmarkReseed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{{"source", &source{}}, {"math-rand", rand.NewSource(0)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.src.Seed(int64(i))
			}
		})
	}
}
