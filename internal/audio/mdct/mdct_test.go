package mdct

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/audio/signal"
)

func TestSizes(t *testing.T) {
	tr, err := New(256)
	if err != nil {
		t.Fatal(err)
	}
	if tr.M() != 256 || tr.WindowLen() != 512 {
		t.Fatalf("M=%d WindowLen=%d", tr.M(), tr.WindowLen())
	}
}

func TestBadSizes(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("M=0 accepted")
	}
	tr, _ := New(8)
	if _, err := tr.Forward(make([]float64, 15)); err == nil {
		t.Error("wrong window length accepted")
	}
	if _, err := tr.Inverse(make([]float64, 9)); err == nil {
		t.Error("wrong coefficient length accepted")
	}
}

func TestPrincenBradleyWindow(t *testing.T) {
	tr, _ := New(64)
	for i := 0; i < 64; i++ {
		s := tr.window[i]*tr.window[i] + tr.window[i+64]*tr.window[i+64]
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("w[%d]²+w[%d+M]² = %v, want 1", i, i, s)
		}
	}
}

// TestTDACReconstruction is the central MDCT property: forward-transform
// overlapping windows, inverse-transform, overlap-add, and recover the
// original samples exactly (float tolerance) in the interior.
func TestTDACReconstruction(t *testing.T) {
	const m = 64
	tr, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	syn := signal.DefaultProgram()
	const frames = 8
	var invWindows [][]float64
	for f := 0; f < frames; f++ {
		win, err := syn.Samples(f*m, 2*m)
		if err != nil {
			t.Fatal(err)
		}
		coef, err := tr.Forward(win)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := tr.Inverse(coef)
		if err != nil {
			t.Fatal(err)
		}
		invWindows = append(invWindows, inv)
	}
	recon := OverlapAdd(invWindows, m)
	ref, err := syn.Samples(0, m*(frames+1))
	if err != nil {
		t.Fatal(err)
	}
	// Interior region [m, frames*m) is fully overlapped.
	snr := signal.SNRdB(ref[m:frames*m], recon[m:frames*m])
	if snr < 200 {
		t.Fatalf("TDAC reconstruction SNR = %.1f dB, want ~exact", snr)
	}
}

func TestForwardEnergyScales(t *testing.T) {
	// A louder signal has proportionally larger coefficients
	// (linearity).
	tr, _ := New(32)
	x := make([]float64, 64)
	for i := range x {
		x[i] = math.Sin(0.1 * float64(i))
	}
	c1, err := tr.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		x[i] *= 2
	}
	c2, err := tr.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := range c1 {
		if math.Abs(c2[k]-2*c1[k]) > 1e-9 {
			t.Fatalf("linearity violated at coefficient %d", k)
		}
	}
}

func TestZeroInputZeroOutput(t *testing.T) {
	tr, _ := New(16)
	coef, err := tr.Forward(make([]float64, 32))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range coef {
		if v != 0 {
			t.Fatalf("coefficient %d = %v for silence", k, v)
		}
	}
}

func TestOverlapAddEmpty(t *testing.T) {
	if OverlapAdd(nil, 8) != nil {
		t.Fatal("OverlapAdd(nil) != nil")
	}
}

// TestTablesSharedPerM pins the memoised tables: two New calls for one M
// return the same Transform, and goroutines using it at once (run under
// -race) get the coefficients and windows of a freshly built table.
func TestTablesSharedPerM(t *testing.T) {
	const m = 48
	a, _ := New(m)
	b, _ := New(m)
	if a != b {
		t.Fatal("two New calls for one M built two tables")
	}
	if c, _ := New(m + 1); c == a {
		t.Fatal("New(M+1) returned the Transform of M")
	}
	fresh := build(m)
	x, err := signal.DefaultProgram().Samples(0, 2*m)
	if err != nil {
		t.Fatal(err)
	}
	wantCoef, _ := fresh.Forward(x)
	wantWin, _ := fresh.Inverse(wantCoef)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				coef, _ := a.Forward(x)
				win, _ := a.Inverse(coef)
				if !slices.Equal(coef, wantCoef) || !slices.Equal(win, wantWin) {
					errs <- "shared tables disagree with a fresh build"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func BenchmarkForward256(b *testing.B) {
	tr, _ := New(256)
	x := make([]float64, 512)
	for i := range x {
		x[i] = math.Sin(0.01 * float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Forward(x); err != nil {
			b.Fatal(err)
		}
	}
}
