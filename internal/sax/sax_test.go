package sax

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"cabd/internal/stats"
)

// Word, SlidingWords and Frequency are the reference pipeline: one
// allocated word per window, compared by a linear scan. Corpora must
// answer exactly as Frequency over SlidingWords does.

// Word converts xs to a SAX word: standardize, PAA to m segments,
// symbolize with alphabet size a. An empty input yields "".
func Word(xs []float64, m, a int) string {
	if len(xs) == 0 {
		return ""
	}
	z := stats.Standardize(xs)
	return Symbolize(PAA(z, m), a)
}

// SlidingWords converts every length-w window of xs (stride 1) into a
// SAX word of m segments over alphabet a. Returns nil when w > len(xs)
// or parameters are degenerate.
func SlidingWords(xs []float64, w, m, a int) []string {
	n := len(xs)
	if w <= 0 || w > n || m <= 0 || a < 2 {
		return nil
	}
	words := make([]string, 0, n-w+1)
	for i := 0; i+w <= n; i++ {
		words = append(words, Word(xs[i:i+w], m, a))
	}
	return words
}

// Frequency returns the fraction of words equal to target. An empty word
// list returns 0.
func Frequency(words []string, target string) float64 {
	if len(words) == 0 {
		return 0
	}
	count := 0
	for _, w := range words {
		if w == target {
			count++
		}
	}
	return float64(count) / float64(len(words))
}

func TestPAAExactDivision(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 3, 3}
	got := PAA(xs, 3)
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PAA[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPAAUnevenDivision(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := PAA(xs, 2)
	// floor(j*2/5): j=0,1,2 -> seg0; j=3,4 -> seg1.
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-4.5) > 1e-12 {
		t.Errorf("PAA = %v", got)
	}
}

func TestPAADegenerate(t *testing.T) {
	if PAA(nil, 3) != nil {
		t.Error("nil input should give nil")
	}
	if PAA([]float64{1}, 0) != nil {
		t.Error("m=0 should give nil")
	}
	xs := []float64{1, 2}
	got := PAA(xs, 5)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("m>n PAA = %v", got)
	}
	// m>n must copy, not alias.
	got[0] = 99
	if xs[0] == 99 {
		t.Error("PAA aliased its input")
	}
}

func TestBreakpoints(t *testing.T) {
	bp := Breakpoints(4)
	if len(bp) != 3 {
		t.Fatalf("len = %d", len(bp))
	}
	// Known SAX breakpoints for a=4: -0.6745, 0, 0.6745.
	want := []float64{-0.6745, 0, 0.6745}
	for i := range want {
		if math.Abs(bp[i]-want[i]) > 1e-3 {
			t.Errorf("bp[%d] = %v, want %v", i, bp[i], want[i])
		}
	}
	if Breakpoints(1) != nil {
		t.Error("a=1 should give nil")
	}
}

func TestSymbolize(t *testing.T) {
	// With a=4 breakpoints at -0.67, 0, 0.67.
	got := Symbolize([]float64{-2, -0.3, 0.3, 2}, 4)
	if got != "abcd" {
		t.Errorf("Symbolize = %q, want abcd", got)
	}
}

func TestWordBasic(t *testing.T) {
	// A ramp standardizes monotonically: symbols must be nondecreasing.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	w := Word(xs, 4, 4)
	if len(w) != 4 {
		t.Fatalf("word length = %d", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] < w[i-1] {
			t.Errorf("ramp word not monotone: %q", w)
		}
	}
	if Word(nil, 4, 4) != "" {
		t.Error("empty input should give empty word")
	}
}

func TestWordShapeInvariance(t *testing.T) {
	// SAX words are invariant to affine transformation of the input
	// because of the internal standardization.
	xs := []float64{1, 5, 2, 8, 3, 9, 1, 4}
	ys := make([]float64, len(xs))
	for i, v := range xs {
		ys[i] = v*12.5 + 100
	}
	if Word(xs, 4, 4) != Word(ys, 4, 4) {
		t.Errorf("affine invariance violated: %q vs %q", Word(xs, 4, 4), Word(ys, 4, 4))
	}
}

func TestSlidingWords(t *testing.T) {
	xs := []float64{0, 1, 0, 1, 0, 1, 0, 1}
	words := SlidingWords(xs, 4, 4, 3)
	if len(words) != 5 {
		t.Fatalf("expected 5 windows, got %d", len(words))
	}
	// The alternating series has only two distinct windows (0101, 1010),
	// which standardize to mirror-image words.
	uniq := map[string]bool{}
	for _, w := range words {
		uniq[w] = true
	}
	if len(uniq) != 2 {
		t.Errorf("expected 2 distinct words, got %v", uniq)
	}
	if SlidingWords(xs, 20, 2, 3) != nil {
		t.Error("w>n should give nil")
	}
}

func TestFrequency(t *testing.T) {
	words := []string{"ab", "cd", "ab", "ab"}
	if got := Frequency(words, "ab"); got != 0.75 {
		t.Errorf("Frequency = %v", got)
	}
	if got := Frequency(nil, "ab"); got != 0 {
		t.Errorf("empty Frequency = %v", got)
	}
	if got := Frequency(words, "zz"); got != 0 {
		t.Errorf("absent Frequency = %v", got)
	}
}

func TestMinDist(t *testing.T) {
	// Adjacent symbols have zero distance.
	if got := MinDist("ab", "ba", 4); got != 0 {
		t.Errorf("adjacent MinDist = %v", got)
	}
	if got := MinDist("aa", "cc", 4); got <= 0 {
		t.Errorf("far MinDist = %v, want > 0", got)
	}
	if got := MinDist("a", "ab", 4); got != -1 {
		t.Errorf("length mismatch = %v", got)
	}
	if got := MinDist("ad", "ad", 4); got != 0 {
		t.Errorf("identical MinDist = %v", got)
	}
}

// Property: words always have length min(m, len(xs)) and draw only from
// the first a letters.
func TestWordProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		m := 1 + rng.Intn(20)
		a := 2 + rng.Intn(8)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		w := Word(xs, m, a)
		wantLen := m
		if n < m {
			wantLen = n
		}
		if len(w) != wantLen {
			return false
		}
		for i := 0; i < len(w); i++ {
			if w[i] < 'a' || w[i] >= byte('a'+a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MinDist is symmetric and zero on identical words.
func TestMinDistProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	alphabet := "abcd"
	randWord := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(4)])
		}
		return b.String()
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		w1, w2 := randWord(n), randWord(n)
		d12, d21 := MinDist(w1, w2, 4), MinDist(w2, w1, 4)
		if d12 != d21 {
			t.Fatalf("asymmetric: %q %q -> %v vs %v", w1, w2, d12, d21)
		}
		if MinDist(w1, w1, 4) != 0 {
			t.Fatalf("self distance nonzero for %q", w1)
		}
		if d12 < 0 {
			t.Fatalf("negative distance for %q %q", w1, w2)
		}
	}
}

// corpusSeries draws one randomized series from the regimes the encoder
// branches on: Gaussian noise, a few quantized levels (σ = 0 windows and
// standardized values exactly on breakpoints), constant runs spliced
// into noise, and magnitudes near 1e100 (both spread out, and collapsed
// by rounding onto one value).
func corpusSeries(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	kind := rng.Intn(5)
	for i := range xs {
		switch kind {
		case 0:
			xs[i] = rng.NormFloat64()
		case 1:
			xs[i] = float64(rng.Intn(3))
		case 2:
			if (i/7)%2 == 0 {
				xs[i] = 2.5
			} else {
				xs[i] = rng.NormFloat64()
			}
		case 3:
			xs[i] = 1e100 * (1 + rng.NormFloat64())
		default:
			xs[i] = 1e100 + rng.NormFloat64()
		}
	}
	return xs
}

// TestCorporaMatchesReference is the differential: on randomized series,
// every window's word from encode and from the four-window kernel equals
// Word, and Corpora.Frequency equals Frequency over SlidingWords bit for
// bit. The trials must reach window counts of every residue mod 4 (the
// kernel's tail), and word spaces a^m on both sides of the integer-id cut.
func TestCorporaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var residues [4]int
	var direct, mapped int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(90)
		xs := corpusSeries(rng, n)
		a := 1 + rng.Intn(10)
		bp := Breakpoints(a)
		for _, w := range []int{1, 2, 1 + rng.Intn(n), n} {
			if w > n {
				continue
			}
			for _, m := range []int{1, w, w + 3, 1 + rng.Intn(8), laneWord + 1} {
				size := min(m, w)
				nwin := n - w + 1
				c := NewCorpora(xs, m, a)
				words := SlidingWords(xs, w, m, a)
				buf := make([]byte, size)
				var ln lanes
				kernel := size < w && size <= laneWord
				if kernel && a >= 2 {
					residues[nwin%4]++
					if wordSpace(a, size, nwin) > 0 {
						direct++
					} else {
						mapped++
					}
				}
				for lo := 0; lo+w <= n; lo++ {
					ref := Word(xs[lo:lo+w], m, a)
					encode(buf, xs[lo:lo+w], bp)
					if string(buf) != ref {
						t.Fatalf("trial %d n=%d w=%d m=%d a=%d lo=%d: encode %q, Word %q",
							trial, n, w, m, a, lo, buf, ref)
					}
					if kernel && lo+w+3 <= n {
						encode4(&ln, xs[lo:lo+w+3], w, size, bp)
						for k := range ln {
							if got, want := string(ln[k][:size]), Word(xs[lo+k:lo+k+w], m, a); got != want {
								t.Fatalf("trial %d n=%d w=%d m=%d a=%d lo=%d lane %d: encode4 %q, Word %q",
									trial, n, w, m, a, lo, k, got, want)
							}
						}
					}
					got := c.Frequency(lo, lo+w)
					want := Frequency(words, ref)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d n=%d w=%d m=%d a=%d lo=%d: Frequency %v, reference %v",
							trial, n, w, m, a, lo, got, want)
					}
				}
			}
		}
	}
	// At the cut itself: 3^3 = 27 possible words against 26, 27 and 28
	// windows.
	for nwin := 26; nwin <= 28; nwin++ {
		w := 8
		xs := corpusSeries(rng, nwin+w-1)
		c := NewCorpora(xs, 3, 3)
		words := SlidingWords(xs, w, 3, 3)
		for lo := 0; lo < nwin; lo++ {
			got, want := c.Frequency(lo, lo+w), Frequency(words, words[lo])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%d windows, lo=%d: Frequency %v, reference %v", nwin, lo, got, want)
			}
		}
	}
	t.Logf("kernel tables by window count mod 4: %v; integer ids %d, map %d", residues, direct, mapped)
	for r, cnt := range residues {
		if cnt == 0 {
			t.Errorf("no kernel table had a window count of %d mod 4", r)
		}
	}
	if direct == 0 || mapped == 0 {
		t.Errorf("kernel tables: %d with integer ids, %d through the map; want both", direct, mapped)
	}
}

// TestCorporaDegenerate: the parameters SlidingWords rejects score 0.
func TestCorporaDegenerate(t *testing.T) {
	xs := []float64{0, 1, 0, 1, 0, 1}
	cases := []struct {
		name   string
		m, a   int
		lo, hi int
	}{
		{"window longer than series", 2, 3, 0, 7},
		{"empty window", 2, 3, 3, 3},
		{"no segments", 0, 3, 0, 3},
		{"alphabet 1", 2, 1, 0, 3},
		{"alphabet 0", 2, 0, 0, 3},
	}
	for _, tc := range cases {
		want := Frequency(SlidingWords(xs, tc.hi-tc.lo, tc.m, tc.a), "")
		if got := NewCorpora(xs, tc.m, tc.a).Frequency(tc.lo, tc.hi); got != 0 || want != 0 {
			t.Errorf("%s: Frequency = %v, reference %v, want 0", tc.name, got, want)
		}
	}
	if got := NewCorpora(xs, 2, 3).Frequency(0, 2); got != 0.6 {
		t.Errorf("alternating pairs: Frequency = %v, want 0.6", got)
	}
}

// TestCorporaBuildAllocs: building one length's table costs a constant
// number of allocations, however long the series — the encoders allocate
// nothing per window. With integer word ids (4^3 = 64 possible words, no
// more than the windows) nothing is added per distinct word; below the
// cut (45 windows) the map numbering adds one key per distinct word.
func TestCorporaBuildAllocs(t *testing.T) {
	// The Corpora, its breakpoints and table map, the table, its id
	// slice, index and counts: under a dozen, for any n.
	const budget = 12
	for _, n := range []int{60, 200, 5000, 50000} {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		limit := budget
		if wordSpace(4, 3, n-16+1) == 0 {
			limit += len(NewCorpora(xs, 3, 4).table(16).counts)
		}
		allocs := testing.AllocsPerRun(5, func() {
			NewCorpora(xs, 3, 4).Frequency(0, 16)
		})
		if allocs > float64(limit) {
			t.Errorf("n=%d: %v allocations, want <= %d", n, allocs, limit)
		}
	}
}

// TestCorporaLookupAllocs: once a length is built, lookups allocate
// nothing.
func TestCorporaLookupAllocs(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Sin(float64(i) / 5)
	}
	c := NewCorpora(xs, 3, 3)
	c.Frequency(0, 9)
	if allocs := testing.AllocsPerRun(100, func() { c.Frequency(17, 26) }); allocs != 0 {
		t.Errorf("built lookup allocated %v times", allocs)
	}
}

// TestCorporaConcurrent: workers asking about many lengths at once see
// the same frequencies as one sequential pass (and the race detector
// sees the per-length builds).
func TestCorporaConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := corpusSeries(rng, 400)
	want := map[int]float64{}
	seq := NewCorpora(xs, 3, 3)
	for w := 2; w < 30; w++ {
		want[w] = seq.Frequency(w, 2*w)
	}
	c := NewCorpora(xs, 3, 3)
	got := make([]float64, 30)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for w := 2 + g; w < 30; w += 4 {
				got[w] = c.Frequency(w, 2*w)
			}
		}(g)
	}
	wg.Wait()
	for w := 2; w < 30; w++ {
		if got[w] != want[w] {
			t.Errorf("w=%d: concurrent %v, sequential %v", w, got[w], want[w])
		}
	}
}

// benchSink keeps the benchmarked lookups live.
var benchSink float64

// BenchmarkCorpora builds and queries the tables one scoring pass over a
// 2000-point series asks for: each centered window length the
// correlation score uses (7 to 25), probed every 16 positions.
func BenchmarkCorpora(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCorpora(xs, 3, 3)
		for w := 7; w <= 25; w += 2 {
			for lo := 0; lo+w <= len(xs); lo += 16 {
				benchSink += c.Frequency(lo, lo+w)
			}
		}
	}
}
