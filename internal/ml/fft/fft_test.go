package fft

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n^2) reference for differential testing.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			out[k] += x[t] * cmplx.Exp(complex(0, ang))
		}
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-6*float64(n) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	orig := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("round trip failed at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestImpulseHasFlatSpectrum(t *testing.T) {
	x := make([]complex128, 16)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse spectrum bin %d = %v", i, v)
		}
	}
}

func TestSineConcentratesEnergy(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*4*float64(i)/float64(n)), 0)
	}
	FFT(x)
	// Energy must sit in bins 4 and n-4.
	for i, v := range x {
		m := cmplx.Abs(v)
		if i == 4 || i == n-4 {
			if m < float64(n)/4 {
				t.Errorf("expected peak at bin %d, got %v", i, m)
			}
		} else if m > 1e-6 {
			t.Errorf("leakage at bin %d: %v", i, m)
		}
	}
}

func TestNextPow2AndPad(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
	p := PadPow2([]float64{1, 2, 3})
	if len(p) != 4 || p[0] != 1 || p[3] != 0 {
		t.Errorf("PadPow2 = %v", p)
	}
}

func TestNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two input")
		}
	}()
	FFT(make([]complex128, 3))
}

// Property: Parseval's theorem — energy preserved up to the 1/n convention.
func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 << (1 + rng.Intn(8))
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeE += real(x[i] * cmplx.Conj(x[i]))
		}
		FFT(x)
		var freqE float64
		for _, v := range x {
			freqE += real(v * cmplx.Conj(v))
		}
		if math.Abs(freqE/float64(n)-timeE) > 1e-6*timeE {
			t.Fatalf("Parseval violated: %v vs %v", freqE/float64(n), timeE)
		}
	}
}

func TestCheckedVariantsRejectNonPow2(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 9, 100, 1000} {
		x := make([]complex128, n)
		if err := TransformChecked(x); !errors.Is(err, ErrNotPow2) {
			t.Errorf("TransformChecked(len %d) = %v, want ErrNotPow2", n, err)
		}
		if err := InverseChecked(x); !errors.Is(err, ErrNotPow2) {
			t.Errorf("InverseChecked(len %d) = %v, want ErrNotPow2", n, err)
		}
	}
}

func TestCheckedVariantsMatchUnchecked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 8, 64} {
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := append([]complex128(nil), a...)
		FFT(a)
		if err := TransformChecked(b); err != nil {
			t.Fatalf("TransformChecked(len %d): %v", n, err)
		}
		for i := range a {
			if cmplx.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("len %d: checked transform diverges at %d", n, i)
			}
		}
		IFFT(a)
		if err := InverseChecked(b); err != nil {
			t.Fatalf("InverseChecked(len %d): %v", n, err)
		}
		for i := range a {
			if cmplx.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("len %d: checked inverse diverges at %d", n, i)
			}
		}
	}
}

func BenchmarkFFT4096(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]complex128(nil), x...)
		FFT(cp)
	}
}
