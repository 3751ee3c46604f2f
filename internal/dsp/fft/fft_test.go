package fft

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/rng"
)

func approxEqual(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func randomSignal(n int, seed uint64) []complex128 {
	r := rng.New(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	return x
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randomSignal(n, uint64(n))
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := Forward(got); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if !approxEqual(got[k], want[k], 1e-9*float64(n)) {
				t.Fatalf("n=%d bin %d: fft %v vs dft %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	x := randomSignal(128, 7)
	y := append([]complex128(nil), x...)
	if err := Forward(y); err != nil {
		t.Fatal(err)
	}
	// The inverse transform is conj(Forward(conj(X))) / N.
	for i := range y {
		y[i] = cmplx.Conj(y[i])
	}
	if err := Forward(y); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		y[i] = cmplx.Conj(y[i]) / complex(float64(len(y)), 0)
	}
	for i := range x {
		if !approxEqual(x[i], y[i], 1e-10) {
			t.Fatalf("round trip failed at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestNonPowerOfTwoRejected(t *testing.T) {
	x := make([]complex128, 12)
	if err := Forward(x); !errors.Is(err, ErrNotPowerOfTwo) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyInputOK(t *testing.T) {
	if err := Forward(nil); err != nil {
		t.Fatal(err)
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		if !approxEqual(v, 1, 1e-12) {
			t.Fatalf("impulse bin %d = %v", k, v)
		}
	}
}

func TestPureToneBin(t *testing.T) {
	// A complex exponential at bin 3 concentrates all energy in bin 3.
	const n = 64
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * 3 * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		if k == 3 {
			if !approxEqual(v, complex(n, 0), 1e-9) {
				t.Fatalf("bin 3 = %v, want %d", v, n)
			}
		} else if cmplx.Abs(v) > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", k, v)
		}
	}
}

func TestParseval(t *testing.T) {
	// Σ|x|² = (1/N)Σ|X|².
	x := randomSignal(256, 9)
	var tdEnergy float64
	for _, v := range x {
		tdEnergy += cmplx.Abs(v) * cmplx.Abs(v)
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	var fdEnergy float64
	for _, v := range x {
		fdEnergy += cmplx.Abs(v) * cmplx.Abs(v)
	}
	fdEnergy /= 256
	if math.Abs(tdEnergy-fdEnergy) > 1e-8*tdEnergy {
		t.Fatalf("Parseval violated: %v vs %v", tdEnergy, fdEnergy)
	}
}

func TestLinearity(t *testing.T) {
	a := randomSignal(64, 11)
	b := randomSignal(64, 13)
	sum := make([]complex128, 64)
	for i := range sum {
		sum[i] = 2*a[i] + 3*b[i]
	}
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	fs := append([]complex128(nil), sum...)
	if err := Forward(fa); err != nil {
		t.Fatal(err)
	}
	if err := Forward(fb); err != nil {
		t.Fatal(err)
	}
	if err := Forward(fs); err != nil {
		t.Fatal(err)
	}
	for k := range fs {
		if !approxEqual(fs[k], 2*fa[k]+3*fb[k], 1e-9) {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

func TestForward2DRoundTrip(t *testing.T) {
	const rows, cols = 8, 16
	m := make([][]complex128, rows)
	orig := make([][]complex128, rows)
	r := rng.New(17)
	for i := range m {
		m[i] = make([]complex128, cols)
		orig[i] = make([]complex128, cols)
		for j := range m[i] {
			v := complex(r.Float64(), r.Float64())
			m[i][j], orig[i][j] = v, v
		}
	}
	if err := Forward2D(m); err != nil {
		t.Fatal(err)
	}
	// The inverse transform is conj(Forward2D(conj(X))) / (rows·cols).
	conj := func() {
		for i := range m {
			for j := range m[i] {
				m[i][j] = cmplx.Conj(m[i][j])
			}
		}
	}
	conj()
	if err := Forward2D(m); err != nil {
		t.Fatal(err)
	}
	conj()
	for i := range m {
		for j := range m[i] {
			if !approxEqual(m[i][j]/(rows*cols), orig[i][j], 1e-9) {
				t.Fatalf("2D round trip failed at (%d,%d)", i, j)
			}
		}
	}
}

func TestForward2DSeparability(t *testing.T) {
	// 2-D FFT of a rank-1 matrix outer(u, v) equals outer(FFT(u), FFT(v)).
	const n = 8
	r := rng.New(19)
	u := make([]complex128, n)
	v := make([]complex128, n)
	for i := 0; i < n; i++ {
		u[i] = complex(r.Float64(), 0)
		v[i] = complex(r.Float64(), 0)
	}
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
		for j := range m[i] {
			m[i][j] = u[i] * v[j]
		}
	}
	if err := Forward2D(m); err != nil {
		t.Fatal(err)
	}
	fu := append([]complex128(nil), u...)
	fv := append([]complex128(nil), v...)
	if err := Forward(fu); err != nil {
		t.Fatal(err)
	}
	if err := Forward(fv); err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m[i] {
			if !approxEqual(m[i][j], fu[i]*fv[j], 1e-8) {
				t.Fatalf("separability violated at (%d,%d)", i, j)
			}
		}
	}
}

func TestForward2DRaggedRejected(t *testing.T) {
	m := [][]complex128{make([]complex128, 4), make([]complex128, 8)}
	if err := Forward2D(m); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func BenchmarkForward1024(b *testing.B) {
	x := randomSignal(1024, 1)
	work := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		if err := Forward(work); err != nil {
			b.Fatal(err)
		}
	}
}
