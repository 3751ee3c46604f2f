// Package mdct implements the Modified Discrete Cosine Transform, the
// lapped transform at the heart of the MP3 encoder pipeline (Fig. 4-7's
// MDCT stage). A window of 2M samples yields M coefficients; consecutive
// windows overlap by M samples, and time-domain alias cancellation (TDAC)
// makes overlap-added inverse transforms reconstruct the signal exactly.
package mdct

import (
	"errors"
	"math"
	"sync"
)

// ErrBadSize is returned when a window length is not a positive even
// number or does not match the transform size.
var ErrBadSize = errors.New("mdct: window length must be 2M")

// Transform holds precomputed tables for a fixed M. It is read-only
// after New: one Transform is shared by every caller that asks for its M,
// from any number of goroutines.
type Transform struct {
	m      int
	window []float64 // sine window, length 2M
	cosTab [][]float64
}

// transforms memoises New: M → *Transform.
var transforms sync.Map

// New returns an MDCT of size M (2M-sample windows, M coefficients). The
// tables are built once per M per process; later calls return the same
// Transform.
func New(m int) (*Transform, error) {
	if m <= 0 {
		return nil, ErrBadSize
	}
	if t, ok := transforms.Load(m); ok {
		return t.(*Transform), nil
	}
	t, _ := transforms.LoadOrStore(m, build(m))
	return t.(*Transform), nil
}

// build computes the tables of an MDCT of size M.
func build(m int) *Transform {
	t := &Transform{m: m}
	n := 2 * m
	t.window = make([]float64, n)
	for i := range t.window {
		// Sine window: satisfies the Princen-Bradley condition
		// w[i]² + w[i+M]² = 1, required for TDAC.
		t.window[i] = math.Sin(math.Pi / float64(n) * (float64(i) + 0.5))
	}
	t.cosTab = make([][]float64, m)
	for k := 0; k < m; k++ {
		t.cosTab[k] = make([]float64, n)
		for i := 0; i < n; i++ {
			t.cosTab[k][i] = math.Cos(math.Pi / float64(m) *
				(float64(i) + 0.5 + float64(m)/2) * (float64(k) + 0.5))
		}
	}
	return t
}

// M returns the coefficient count.
func (t *Transform) M() int { return t.m }

// WindowLen returns the input window length 2M.
func (t *Transform) WindowLen() int { return 2 * t.m }

// Forward transforms a 2M-sample window into M coefficients.
func (t *Transform) Forward(x []float64) ([]float64, error) {
	n := 2 * t.m
	if len(x) != n {
		return nil, ErrBadSize
	}
	out := make([]float64, t.m)
	for k := 0; k < t.m; k++ {
		var sum float64
		tab := t.cosTab[k]
		for i := 0; i < n; i++ {
			sum += x[i] * t.window[i] * tab[i]
		}
		out[k] = sum
	}
	return out, nil
}

// Inverse expands M coefficients back to a 2M-sample aliased window. Two
// consecutive inverse windows overlap-added over their common M samples
// reconstruct the original (TDAC).
func (t *Transform) Inverse(coef []float64) ([]float64, error) {
	if len(coef) != t.m {
		return nil, ErrBadSize
	}
	n := 2 * t.m
	out := make([]float64, n)
	scale := 2.0 / float64(t.m)
	for i := 0; i < n; i++ {
		var sum float64
		for k := 0; k < t.m; k++ {
			sum += coef[k] * t.cosTab[k][i]
		}
		out[i] = scale * sum * t.window[i]
	}
	return out, nil
}

// OverlapAdd reconstructs a signal from consecutive inverse windows
// produced at hop M. The first and last half-windows are transition
// regions without a partner and are returned as-is; callers validating
// reconstruction should compare the fully-overlapped interior.
func OverlapAdd(windows [][]float64, m int) []float64 {
	if len(windows) == 0 {
		return nil
	}
	out := make([]float64, m*(len(windows)+1))
	for f, w := range windows {
		base := f * m
		for i := 0; i < len(w) && base+i < len(out); i++ {
			out[base+i] += w[i]
		}
	}
	return out
}
