// Package fft implements the Fast Fourier Transform used by the thesis'
// FFT2 case study (§4.1.2) and by the psychoacoustic model of the MP3
// encoder (§4.2): an iterative radix-2 Cooley–Tukey transform, the 2-D
// transform, and a naive O(N²) DFT kept as the testing reference.
package fft

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrNotPowerOfTwo is returned when an input length is not a power of two.
var ErrNotPowerOfTwo = errors.New("fft: length must be a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Forward computes the in-place decimation-in-time FFT of x using the
// engineering convention X[k] = Σ x[n]·e^(−2πi·kn/N): an iterative
// radix-2 butterfly network. The input length must be a power of two.
func Forward(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if !IsPowerOfTwo(n) {
		return ErrNotPowerOfTwo
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
	// Butterflies.
	for size := 2; size <= n; size <<= 1 {
		ang := -2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < size/2; k++ {
				a := x[start+k]
				b := x[start+k+size/2] * w
				x[start+k] = a + b
				x[start+k+size/2] = a - b
				w *= wStep
			}
		}
	}
	return nil
}

// Forward2D computes the 2-D FFT of a rows×cols matrix in place: the 1-D
// transform applied along both dimensions, as the thesis' FFT2 case study
// does ("Equation 5 is applied to both dimensions").
func Forward2D(m [][]complex128) error {
	if len(m) == 0 {
		return nil
	}
	cols := len(m[0])
	for _, row := range m {
		if len(row) != cols {
			return errors.New("fft: ragged matrix")
		}
		if err := Forward(row); err != nil {
			return err
		}
	}
	col := make([]complex128, len(m))
	for c := 0; c < cols; c++ {
		for r := range m {
			col[r] = m[r][c]
		}
		if err := Forward(col); err != nil {
			return err
		}
		for r := range m {
			m[r][c] = col[r]
		}
	}
	return nil
}
