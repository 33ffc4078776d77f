package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance singleton = %v, want 0", got)
	}
}

// TestStd2BitIdentical: Variance2 over the split pair must match the
// materialized concatenation bit for bit — the scoring hot path swaps one
// for the other and results may not drift by even one ulp.
func TestStd2BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		cut := 0
		if n > 0 {
			cut = rng.Intn(n + 1)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Exp(float64(rng.Intn(9)-4))
		}
		a, b := xs[:cut], xs[cut:]
		concat := append(append([]float64{}, a...), b...)
		if got, want := Variance2(a, b), Variance(concat); got != want {
			t.Fatalf("trial %d: Variance2 = %v, Variance(concat) = %v", trial, got, want)
		}
	}
	if got := Variance2(nil, []float64{3}); got != 0 {
		t.Errorf("Variance2 singleton = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	// Median must not reorder the input.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Median mutated its input")
	}
}

// sortMedian is the sort-based Median the selection replaced, kept as
// the reference the selection must reproduce.
func sortMedian(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// checkMedian fails unless Median(xs) equals sortMedian(xs) — NaN exactly
// where the reference is NaN — and leaves xs bit for bit as it was. It
// returns the reference.
func checkMedian(t *testing.T, xs []float64) float64 {
	t.Helper()
	before := make([]uint64, len(xs))
	for i, x := range xs {
		before[i] = math.Float64bits(x)
	}
	got, want := Median(xs), sortMedian(xs)
	if math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(want) && got != want) {
		t.Fatalf("n=%d %v: Median %v, sorted reference %v", len(xs), xs, got, want)
	}
	for i, x := range xs {
		if math.Float64bits(x) != before[i] {
			t.Fatalf("n=%d: Median changed xs[%d] from %v to %v", len(xs), i, math.Float64frombits(before[i]), x)
		}
	}
	return want
}

// TestMedianMatchesSort is the selection's differential: on random
// slices of length 0–200, heavily tied and salted with NaN, -0 and +0,
// and in random, ascending and descending order, Median equals the
// middle of the sorted copy.
func TestMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var nanMedians, zeroMedians int
	for trial := 0; trial < 3000; trial++ {
		xs := make([]float64, rng.Intn(201))
		specials := rng.Intn(4) // how often a special value is drawn
		for i := range xs {
			switch r := rng.Intn(12); {
			case r < specials:
				xs[i] = [...]float64{math.NaN(), math.Copysign(0, -1), 0}[rng.Intn(3)]
			case r < 6 && i > 0:
				xs[i] = xs[rng.Intn(i)]
			case r < 9:
				xs[i] = float64(rng.Intn(5) - 2)
			default:
				xs[i] = rng.NormFloat64()
			}
		}
		switch trial % 3 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		switch want := checkMedian(t, xs); {
		case math.IsNaN(want):
			nanMedians++
		case want == 0 && len(xs) > 0:
			zeroMedians++
		}
	}
	if nanMedians == 0 || zeroMedians == 0 {
		t.Errorf("trials with a NaN median: %d, with a zero median: %d; want both", nanMedians, zeroMedians)
	}
}

// TestMedianHeapSelectFallback: an organ pipe (rising, then falling)
// makes the median-of-three pivot split badly until selection's work
// budget runs out and heap selection finishes the span; the median must
// still be the sorted copy's middle. heapSelect also matches sorting on
// its own, for every k, on random tied inputs with NaN and ±0.
func TestMedianHeapSelectFallback(t *testing.T) {
	for _, n := range []int{5000, 5001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(min(i, n-i))
		}
		checkMedian(t, xs)
	}
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, 1+rng.Intn(60))
		for i := range xs {
			xs[i] = [...]float64{math.NaN(), math.Copysign(0, -1), 0, 1, 2, 3}[rng.Intn(6)]
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		k := rng.Intn(len(xs))
		heapSelect(xs, k)
		if math.IsNaN(xs[k]) != math.IsNaN(want[k]) || (!math.IsNaN(want[k]) && xs[k] != want[k]) {
			t.Fatalf("trial %d k=%d: heapSelect put %v, sorting puts %v", trial, k, xs[k], want[k])
		}
		for i, x := range xs {
			if (i < k && nanFirstLess(xs[k], x)) || (i > k && nanFirstLess(x, xs[k])) {
				t.Fatalf("trial %d k=%d: %v at %d is on the wrong side of %v", trial, k, x, i, xs[k])
			}
		}
	}
}

// FuzzMedian: Median equals the sorted copy's middle on any input. Each
// byte is one value: NaN, -0, +Inf, -Inf, or a quarter-step in [-32, 32),
// so ties are common.
func FuzzMedian(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x04, 0xfe, 0x00, 0x04})
	f.Add([]byte{0x00, 0xfe, 0x00, 0xfe})
	f.Add([]byte{0xff, 0xff, 0xfd, 0xfc, 0x10, 0x10, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 0xff:
				xs[i] = math.NaN()
			case 0xfe:
				xs[i] = math.Copysign(0, -1)
			case 0xfd:
				xs[i] = math.Inf(1)
			case 0xfc:
				xs[i] = math.Inf(-1)
			default:
				xs[i] = float64(int8(b)) / 4
			}
		}
		checkMedian(t, xs)
	})
}

func TestMAD(t *testing.T) {
	// Classic example: median 2, deviations {1,1,0,0,2,7} -> median 1.
	xs := []float64{1, 1, 2, 2, 4, 9}
	if got := MAD(xs); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
	if got := MAD([]float64{5, 5, 5}); got != 0 {
		t.Errorf("MAD constant = %v, want 0", got)
	}
}

func TestRobustZ(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 9}
	z := RobustZ(xs)
	if !almostEq(z[5], 7, 1e-12) {
		t.Errorf("z[5] = %v, want 7", z[5])
	}
	// Constant data: zero everywhere the value matches, Inf otherwise.
	z2 := RobustZ([]float64{3, 3, 3, 4})
	if z2[0] != 0 || !math.IsInf(z2[3], 1) {
		t.Errorf("constant-data robust z = %v", z2)
	}
}

// TestRobustZMatchesMedianMAD: RobustZ finds the median once, and must
// stay bit-identical to the composition that takes a Median and another
// inside MAD, on random, heavily tied and constant inputs.
func TestRobustZMatchesMedianMAD(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var inputs [][]float64
	for _, n := range []int{1, 2, 3, 10, 101, 256} {
		random, tied, constant := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range random {
			random[i] = rng.NormFloat64() * 100
			tied[i] = float64(rng.Intn(4))
			constant[i] = 2.5
		}
		inputs = append(inputs, random, tied, constant)
	}
	for _, xs := range inputs {
		med, mad := Median(xs), MAD(xs)
		got := RobustZ(xs)
		for i, x := range xs {
			want := math.Abs(x-med) / mad
			if !(mad > 0) {
				want = 0
				if x != med {
					want = math.Inf(1)
				}
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("n=%d x[%d]=%v: RobustZ %v, Median+MAD %v", len(xs), i, x, got[i], want)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestStandardize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	s := Standardize(xs)
	if !almostEq(Mean(s), 0, 1e-12) || !almostEq(Std(s), 1, 1e-12) {
		t.Errorf("standardized mean/std = %v/%v", Mean(s), Std(s))
	}
	// Constant input maps to zeros, not NaN.
	for _, v := range Standardize([]float64{7, 7, 7}) {
		if v != 0 {
			t.Errorf("constant standardize produced %v", v)
		}
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 4}
	counts, edges := Histogram(xs, 4)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(xs) {
		t.Errorf("histogram total = %d, want %d", total, len(xs))
	}
	if edges[0] != 0 || edges[4] != 4 {
		t.Errorf("edges = %v", edges)
	}
	// Max value lands in the last bin.
	if counts[3] == 0 {
		t.Error("max value missing from last bin")
	}
	// Degenerate range.
	c2, _ := Histogram([]float64{2, 2, 2}, 3)
	if c2[0] != 3 {
		t.Errorf("degenerate histogram = %v", c2)
	}
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if got := Correlation(a, b); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", got)
	}
	c := []float64{10, 8, 6, 4, 2}
	if got := Correlation(a, c); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := Correlation(a, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("zero-variance correlation = %v", got)
	}
}

func TestRMS(t *testing.T) {
	if got := RMS([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("identical RMS = %v", got)
	}
	if got := RMS([]float64{0, 0}, []float64{3, 4}); !almostEq(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMS = %v", got)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almostEq(got, p, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if NormalQuantile(0.5) != 0 {
		t.Errorf("median quantile = %v", NormalQuantile(0.5))
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("boundary quantiles not infinite")
	}
}

func TestStudentTQuantile(t *testing.T) {
	// Known value: t_{0.975, 10} = 2.228.
	if got := StudentTQuantile(0.975, 10); !almostEq(got, 2.228, 0.01) {
		t.Errorf("t quantile = %v, want ~2.228", got)
	}
	// Converges to the normal quantile as df grows.
	if got := StudentTQuantile(0.975, 1e6); !almostEq(got, 1.959964, 1e-3) {
		t.Errorf("large-df t quantile = %v", got)
	}
}

func TestChiSquareQuantile(t *testing.T) {
	// chi2_{0.95, 10} = 18.307.
	if got := ChiSquareQuantile(0.95, 10); !almostEq(got, 18.307, 0.2) {
		t.Errorf("chi2 quantile = %v, want ~18.307", got)
	}
}

// Property: MAD is translation invariant and scales with |c|.
func TestMADPropertyInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 3 {
			return true
		}
		base := MAD(xs)
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v + 17.5
			scaled[i] = v * -3
		}
		return almostEq(MAD(shifted), base, 1e-9*(1+base)) &&
			almostEq(MAD(scaled), 3*base, 1e-9*(1+base))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestQuantilePropertyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		qs := []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}
		prev := math.Inf(-1)
		for _, q := range qs {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
			}
			if v < Min(xs)-1e-12 || v > Max(xs)+1e-12 {
				t.Fatalf("quantile out of range: %v", v)
			}
			prev = v
		}
	}
}

// Property: standardization yields mean 0 / std 1 for any non-constant input.
func TestStandardizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*50 + 10
		}
		s := Standardize(xs)
		return almostEq(Mean(s), 0, 1e-9) && almostEq(Std(s), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: histogram counts always sum to len(input).
func TestHistogramProperty(t *testing.T) {
	f := func(seed int64, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*100 - 50
		}
		bins := int(nb%32) + 1
		counts, edges := Histogram(xs, bins)
		if len(edges) != bins+1 {
			return false
		}
		total := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantileMatchesSortedExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if Quantile(xs, 0) != sorted[0] || Quantile(xs, 1) != sorted[100] {
		t.Error("quantile extremes disagree with sort")
	}
	if got := Quantile(xs, 0.5); got != sorted[50] {
		t.Errorf("median quantile = %v, want %v", got, sorted[50])
	}
}

// TestApproxEq pins the sanctioned float comparison: tolerance semantics,
// the exact-equality fast path for infinities (where Abs(a-b) is NaN),
// and NaN never comparing equal.
func TestApproxEq(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, math.Nextafter(1, 2), 0, false},
		{1.0, 1.1, 0.2, true},
		{1.0, 1.3, 0.2, false},
		{inf, inf, 0, true},
		{-inf, -inf, 0, true},
		{inf, -inf, math.MaxFloat64, false},
		{math.NaN(), math.NaN(), inf, false},
		{math.NaN(), 1, 1, false},
	}
	for _, c := range cases {
		if got := ApproxEq(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEq(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
		if got := ApproxEq(c.b, c.a, c.tol); got != c.want {
			t.Errorf("ApproxEq(%v, %v, %v) = %v, want symmetric %v", c.b, c.a, c.tol, got, c.want)
		}
	}
}
