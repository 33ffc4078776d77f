// Package fft provides an iterative radix-2 complex FFT. It is the
// substrate for the Spectral Residual baseline (the SR half of SR-CNN
// [32]), which transforms a window to the frequency domain, removes the
// average log-spectrum and transforms back to obtain a saliency map.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotPow2 reports a transform length that is not a power of two. Use
// errors.Is against the unwrapped error of TransformChecked /
// InverseChecked.
var ErrNotPow2 = fmt.Errorf("fft: length is not a power of two")

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the in-place iterative radix-2 FFT of x. len(x) must be a
// power of two; FFT panics otherwise (callers pad with PadPow2).
func FFT(x []complex128) {
	transform(x, false)
}

// IFFT computes the inverse FFT of x in place (including the 1/n scale).
// len(x) must be a power of two.
func IFFT(x []complex128) {
	transform(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

// TransformChecked computes the in-place FFT of x, returning ErrNotPow2
// (instead of panicking, as FFT does) when len(x) is not a power of two.
// Prefer it whenever the length derives from runtime input.
func TransformChecked(x []complex128) error {
	if err := checkLen(len(x)); err != nil {
		return err
	}
	transform(x, false)
	return nil
}

// InverseChecked computes the in-place inverse FFT of x (including the
// 1/n scale), returning ErrNotPow2 when len(x) is not a power of two.
func InverseChecked(x []complex128) error {
	if err := checkLen(len(x)); err != nil {
		return err
	}
	IFFT(x)
	return nil
}

func checkLen(n int) error {
	if n != 0 && n&(n-1) != 0 {
		return fmt.Errorf("%w (len %d)", ErrNotPow2, n)
	}
	return nil
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("fft: length is not a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Danielson-Lanczos butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length / 2
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// PadPow2 copies xs into a complex slice zero-padded to the next power of
// two.
func PadPow2(xs []float64) []complex128 {
	n := NextPow2(len(xs))
	out := make([]complex128, n)
	for i, v := range xs {
		out[i] = complex(v, 0)
	}
	return out
}
