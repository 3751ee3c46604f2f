package fft

import (
	"math"
	"math/cmplx"
)

// naiveDFT computes the O(N²) discrete Fourier transform, the reference
// the radix-2 FFT is held to. It works for any length.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}
