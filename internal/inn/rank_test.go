package inn

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cabd/internal/series"
	"cabd/internal/stats"
	"cabd/internal/synth"
)

// legacyIndex is the probe oracle the rank queries replaced: a
// membership probe materializes the k nearest neighbors of x_i and
// scans them for x_j, so RankAtMost returns j's position in
// KNNInto(i, limit), or limit when j is absent. Every other query goes
// to the wrapped index.
type legacyIndex struct{ index }

func (l legacyIndex) RankAtMost(i, j, limit int) int {
	for pos, nb := range l.KNNInto(i, limit, nil) {
		if nb.Index == j {
			return pos
		}
	}
	return limit
}

// legacy returns a Computer over c's points whose probes go through
// legacyIndex.
func legacy(c *Computer) *Computer {
	return newComputerOver(legacyIndex{c.idx})
}

// testSeriesSet returns value slices covering the probe engine's hard
// cases: generic noise, noise with collective anomalies and level shifts,
// flat lines (every embedded point duplicated in value), and coarse
// quantized series (dense exact distance ties).
func testSeriesSet(rng *rand.Rand) [][]float64 {
	var out [][]float64

	noise := make([]float64, 160)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	out = append(out, noise)

	structured := make([]float64, 200)
	for i := range structured {
		structured[i] = 0.2 * rng.NormFloat64()
	}
	for i := 60; i < 66; i++ {
		structured[i] += 30
	}
	for i := 140; i < 200; i++ {
		structured[i] += 8
	}
	out = append(out, structured)

	flat := make([]float64, 120)
	for i := range flat {
		flat[i] = 7
	}
	out = append(out, flat)

	quantized := make([]float64, 150)
	for i := range quantized {
		quantized[i] = float64(rng.Intn(3))
	}
	out = append(out, quantized)

	return out
}

// TestInTopKRankMatchesLegacy is the probe-level differential test: the
// rank-query engine must answer every membership probe exactly like the
// legacy full-k-NN-scan oracle, ties and duplicate points included.
func TestInTopKRankMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for si, vals := range testSeriesSet(rng) {
		rank := FromSeries(series.New("diff", vals))
		memo := rank.WithRankMemo(0)
		oracle := legacy(rank)
		n := rank.Len()
		for probe := 0; probe < 3000; probe++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			k := 1 + rng.Intn(n)
			want := oracle.InTopK(i, j, k)
			if got := rank.InTopK(i, j, k); got != want {
				t.Fatalf("series %d: InTopK(%d,%d,%d) rank=%v legacy=%v",
					si, i, j, k, got, want)
			}
			if got := memo.InTopK(i, j, k); got != want {
				t.Fatalf("series %d: memoized InTopK(%d,%d,%d)=%v, legacy=%v",
					si, i, j, k, got, want)
			}
		}
	}
}

// TestNeighborhoodsEngineIdentical asserts Minimal/Binary/MutualSet are
// bit-identical across the legacy oracle, the rank engine, and the rank
// engine with a shared memo — the engine swap must not move a single
// member.
func TestNeighborhoodsEngineIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for si, vals := range testSeriesSet(rng) {
		c := FromSeries(series.New("diff", vals))
		engines := map[string]*Computer{
			"rank":      c,
			"rank+memo": c.WithRankMemo(0),
		}
		oracle := legacy(c)
		n := c.Len()
		for _, tlim := range []int{1, 3, c.RangeLimit(0), c.RangeLimit(0.2), n - 1} {
			for i := 0; i < n; i += 1 + n/40 {
				wantMin := oracle.Minimal(i, tlim)
				wantBin := oracle.Binary(i, tlim)
				wantSet := oracle.MutualSet(i, tlim)
				for name, eng := range engines {
					if got := eng.Minimal(i, tlim); !reflect.DeepEqual(got, wantMin) {
						t.Fatalf("series %d %s: Minimal(%d,%d)=%v, legacy %v",
							si, name, i, tlim, got, wantMin)
					}
					if got := eng.Binary(i, tlim); !reflect.DeepEqual(got, wantBin) {
						t.Fatalf("series %d %s: Binary(%d,%d)=%v, legacy %v",
							si, name, i, tlim, got, wantBin)
					}
					if got := eng.MutualSet(i, tlim); !reflect.DeepEqual(got, wantSet) {
						t.Fatalf("series %d %s: MutualSet(%d,%d)=%v, legacy %v",
							si, name, i, tlim, got, wantSet)
					}
				}
			}
		}
	}
}

// TestRankMemoConcurrent hammers one shared memo from many goroutines
// (run under -race by make check) and checks results against a serial
// memo-less engine.
func TestRankMemoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for i := 100; i < 107; i++ {
		vals[i] += 25
	}
	c := FromSeries(series.New("conc", vals))
	shared := c.WithRankMemo(512) // tiny bound: forces shard resets
	tlim := c.RangeLimit(0)
	want := make([][]int, c.Len())
	for i := range want {
		want[i] = c.Binary(i, tlim)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(seed)))
			for probe := 0; probe < 400; probe++ {
				i := r.Intn(c.Len())
				if got := shared.Binary(i, tlim); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent Binary(%d)=%v, want %v", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestNComputerEngineIdentical is the multivariate counterpart of the
// engine-identity test.
func TestNComputerEngineIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, dim := 120, 3
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		row[0] = float64(i)
		for j := 1; j < dim; j++ {
			row[j] = float64(rng.Intn(3)) // quantized: exact ties
		}
		pts[i] = row
	}
	rank := NewNComputer(pts)
	oracle := legacy(rank)
	tlim := rank.RangeLimit(0)
	for i := 0; i < n; i++ {
		if got, want := rank.Minimal(i, tlim), oracle.Minimal(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("ND Minimal(%d)=%v, legacy %v", i, got, want)
		}
		if got, want := rank.Binary(i, tlim), oracle.Binary(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("ND Binary(%d)=%v, legacy %v", i, got, want)
		}
		if got, want := rank.MutualSet(i, tlim), oracle.MutualSet(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("ND MutualSet(%d)=%v, legacy %v", i, got, want)
		}
	}
}

// TestDetectFixtureEngineIdentical runs the probe differential on the
// 2,000-point Yahoo-like fixture the detector determinism tests use: at
// the detector's pruned range every point's Binary and Minimal
// neighborhood, and a stride of MutualSet ones, must match the legacy
// oracle member for member.
func TestDetectFixtureEngineIdentical(t *testing.T) {
	rank := FromSeries(synth.YahooLike(100, 2000))
	oracle := legacy(rank)
	tlim := rank.RangeLimit(0)
	for i := 0; i < rank.Len(); i++ {
		if got, want := rank.Binary(i, tlim), oracle.Binary(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("Binary(%d)=%v, legacy %v", i, got, want)
		}
		if got, want := rank.Minimal(i, tlim), oracle.Minimal(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("Minimal(%d)=%v, legacy %v", i, got, want)
		}
		if i%25 != 0 {
			continue
		}
		if got, want := rank.MutualSet(i, tlim), oracle.MutualSet(i, tlim); !reflect.DeepEqual(got, want) {
			t.Fatalf("MutualSet(%d)=%v, legacy %v", i, got, want)
		}
	}
}

// innBenchValues is the shared fixture for the probe-engine benchmarks:
// a 2k-point noisy series with a few collective anomalies, so
// neighborhoods have realistic structure (the Fig. 11 anchor size).
func innBenchValues(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for _, at := range []int{300, 800, 1300, 1800} {
		for j := 0; j < 6; j++ {
			vals[at+j] += 40
		}
	}
	return vals
}

// innBenchComputer indexes the 2-D embedding of the benchmark fixture.
func innBenchComputer() *Computer {
	return FromSeries(series.New("bench", innBenchValues(7)))
}

// ndBenchComputer indexes the multivariate detector's embedding of three
// such channels (seeds 7, 8, 9): rows of (standardized index,
// standardized value_1..value_3) carved from one backing array.
func ndBenchComputer() *Computer {
	const d = 3
	chans := make([][]float64, d)
	for k := range chans {
		chans[k] = stats.Standardize(innBenchValues(int64(7 + k)))
	}
	n := len(chans[0])
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	sidx := stats.Standardize(idx)
	flat := make([]float64, n*(1+d))
	rows := make([][]float64, n)
	for i := range rows {
		row := flat[i*(1+d) : (i+1)*(1+d)]
		row[0] = sidx[i]
		for k, ch := range chans {
			row[1+k] = ch[i]
		}
		rows[i] = row
	}
	return NewNComputer(rows)
}

// benchINNEngines runs one neighborhood strategy over base under the
// legacy (full-k-NN-probe) engine, the rank-query engine, and the rank
// engine with the measurement-only memo — the old-vs-new comparison
// backing the engine swap.
func benchINNEngines(b *testing.B, base *Computer, call func(c *Computer, i, tlim int) []int) {
	tlim := base.RangeLimit(0)
	engines := []struct {
		name string
		c    *Computer
	}{
		{"legacy", legacy(base)},
		{"rank", base},
		{"rank+memo", base.WithRankMemo(0)},
	}
	for _, eng := range engines {
		eng := eng
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				call(eng.c, i%eng.c.Len(), tlim)
			}
		})
	}
}

func BenchmarkINNBinary(b *testing.B) {
	benchINNEngines(b, innBenchComputer(), func(c *Computer, i, tlim int) []int { return c.Binary(i, tlim) })
}

// BenchmarkINNBinaryND is BenchmarkINNBinary over the multivariate
// embedding at d = 3: the same probes on rows of four coordinates.
func BenchmarkINNBinaryND(b *testing.B) {
	benchINNEngines(b, ndBenchComputer(), func(c *Computer, i, tlim int) []int { return c.Binary(i, tlim) })
}

func BenchmarkINNMinimal(b *testing.B) {
	benchINNEngines(b, innBenchComputer(), func(c *Computer, i, tlim int) []int { return c.Minimal(i, tlim) })
}

func BenchmarkINNMutualSet(b *testing.B) {
	benchINNEngines(b, innBenchComputer(), func(c *Computer, i, tlim int) []int { return c.MutualSet(i, tlim) })
}
