package rng

import (
	"fmt"
	"math"
	"testing"
)

// The fixed-point hot path rests on two determinism subtleties nothing
// else guards: the p<=0 / p>=1 edges decide WITHOUT consuming a draw
// (so a degenerate probability in one consumer never shifts another
// consumer's stream), and MakeThreshold+BoolT reproduce Bool exactly —
// decisions and draws — for every representable p.

// TestBoolEdgesConsumeNoDraw pins that the never/always edges of Bool,
// BoolT and MakeThreshold leave the stream untouched, while an interior
// p consumes exactly one draw.
func TestBoolEdgesConsumeNoDraw(t *testing.T) {
	r := New(99)
	before := r.State()
	for _, p := range []float64{0, -0.25, math.Inf(-1)} {
		if r.Bool(p) || r.BoolT(MakeThreshold(p)) {
			t.Fatalf("Bool(%v) fired", p)
		}
	}
	for _, p := range []float64{1, 1.5, math.Inf(1)} {
		if !r.Bool(p) || !r.BoolT(MakeThreshold(p)) {
			t.Fatalf("Bool(%v) did not fire", p)
		}
	}
	if r.State() != before {
		t.Fatal("edge-probability draws advanced the stream")
	}
	// One interior draw advances the state exactly as one Uint64 does.
	ref := New(99)
	ref.Uint64()
	r.Bool(0.5)
	if r.State() != ref.State() {
		t.Fatal("Bool(0.5) did not consume exactly one draw")
	}
	r.BoolT(MakeThreshold(0.5))
	ref.Uint64()
	if r.State() != ref.State() {
		t.Fatal("BoolT(interior) did not consume exactly one draw")
	}
}

// TestMakeThresholdBoundaries pins the fixed-point conversion at the
// edges of the probability range and on exactly-representable points.
func TestMakeThresholdBoundaries(t *testing.T) {
	cases := []struct {
		p    float64
		want Threshold
	}{
		{0, 0},
		{-1, 0},
		{1, ThresholdAlways},
		{2, ThresholdAlways},
		{0.5, 1 << 52},
		{0.25, 1 << 51},
		// The smallest positive float must still be able to fire: ceil
		// rounds any p > 0 up to at least 1.
		{math.SmallestNonzeroFloat64, 1},
		// The largest p below 1 stays strictly below ThresholdAlways:
		// p·2^53 = 2^53 − 1 exactly.
		{1 - 0x1p-53, ThresholdAlways - 1},
	}
	for _, c := range cases {
		if got := MakeThreshold(c.p); got != c.want {
			t.Errorf("MakeThreshold(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	// NaN slips past both clamps (it compares false to everything) and
	// the float→uint conversion of Ceil(NaN) is platform-defined — but
	// whatever it converts to, Bool and BoolT must still agree in
	// decisions (both compare against the same converted value).
	r1, r2 := New(7), New(7)
	if r1.Bool(math.NaN()) != r2.BoolT(MakeThreshold(math.NaN())) {
		t.Fatal("Bool(NaN) and BoolT(MakeThreshold(NaN)) disagree")
	}
	// Ceil rounding: for p just above k/2^53 the threshold is k+1, so a
	// draw equal to k still fires — the exact semantics of u < p·2^53.
	p := math.Nextafter(0.5, 1) // 0.5 + 2^-53
	if want := Threshold(1<<52) + 1; MakeThreshold(p) != want {
		t.Errorf("MakeThreshold(0.5+ulp) = %d, want %d", MakeThreshold(p), want)
	}
}

// TestThresholdEquivalenceSweep holds BoolT(MakeThreshold(p)) to Bool(p)
// decision-for-decision and draw-for-draw across random probabilities —
// the provable-equivalence claim the fixed-point refactor rests on.
func TestThresholdEquivalenceSweep(t *testing.T) {
	g := New(0xABCDE)
	ps := []float64{0, 1, 0x1p-53, 1 - 0x1p-53, 0.1, 1.0 / 3}
	for i := 0; i < 200; i++ {
		ps = append(ps, g.Float64())
	}
	for _, p := range ps {
		a, b := New(42), New(42)
		th := MakeThreshold(p)
		for i := 0; i < 300; i++ {
			if a.Bool(p) != b.BoolT(th) {
				t.Fatalf("p=%v: decision %d diverged", p, i)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("p=%v: draw consumption diverged", p)
		}
	}
}

// TestBoolsTMatchesBoolT holds BoolsT(t, k) to k BoolT(t) calls, mask
// bit for call and draw for draw, at every k and at the thresholds where
// the two could part: the never/always edges, the smallest and largest
// drawn ones, and a sweep of interior probabilities.
func TestBoolsTMatchesBoolT(t *testing.T) {
	ths := []Threshold{0, 1, 1 << 52, 1<<53 - 1, ThresholdAlways}
	g := New(0xB001)
	for i := 0; i < 20; i++ {
		ths = append(ths, MakeThreshold(g.Float64()))
	}
	for _, th := range ths {
		for k := 0; k <= 64; k++ {
			a, b := New(uint64(k)+7), New(uint64(k)+7)
			var want uint64
			for i := 0; i < k; i++ {
				if a.BoolT(th) {
					want |= 1 << i
				}
			}
			if got := b.BoolsT(th, k); got != want {
				t.Fatalf("threshold %d, k=%d: mask %#x, want %#x", th, k, got, want)
			}
			if a.State() != b.State() {
				t.Fatalf("threshold %d, k=%d: BoolsT consumed other draws than %d BoolT calls", th, k, k)
			}
		}
	}
}

// coinSink keeps BenchmarkBoolsT's coins live.
var coinSink uint64

// BenchmarkBoolsT times k p = 0.5 coins, drawn as one BoolsT mask and as
// k BoolT calls: the RNG-draw rung under phase 3's coins-first loop. k = 4
// is a mesh tile's degree, k = 64 a full chunk.
func BenchmarkBoolsT(b *testing.B) {
	th := MakeThreshold(0.5)
	for _, k := range []int{4, 64} {
		b.Run(fmt.Sprintf("mask/k=%d", k), func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				coinSink ^= r.BoolsT(th, k)
			}
		})
		b.Run(fmt.Sprintf("calls/k=%d", k), func(b *testing.B) {
			r := New(1)
			for i := 0; i < b.N; i++ {
				for j := range k {
					if r.BoolT(th) {
						coinSink ^= 1 << j
					}
				}
			}
		})
	}
}

// TestGeometricSkipDistribution checks the inverse-CDF geometric sampler
// against its law: mean (1−p)/p, P(skip = 0) = p, and the tail
// P(skip ≥ k) = (1−p)^k.
func TestGeometricSkipDistribution(t *testing.T) {
	for _, p := range []float64{0.02, 0.1, 0.4} {
		inv := 1 / math.Log1p(-p)
		r := New(0x5eed)
		const n = 200000
		var sum, zeros, tail float64
		k := int(3 / p) // a deep but well-populated tail point
		for i := 0; i < n; i++ {
			s := r.GeometricSkip(inv)
			if s < 0 {
				t.Fatalf("p=%v: negative skip %d", p, s)
			}
			sum += float64(s)
			if s == 0 {
				zeros++
			}
			if s >= k {
				tail++
			}
		}
		mean, wantMean := sum/n, (1-p)/p
		if math.Abs(mean-wantMean) > 0.03*wantMean+0.01 {
			t.Errorf("p=%v: mean skip = %v, want ~%v", p, mean, wantMean)
		}
		if got := zeros / n; math.Abs(got-p) > 0.01 {
			t.Errorf("p=%v: P(skip=0) = %v", p, got)
		}
		want := math.Pow(1-p, float64(k))
		if got := tail / n; math.Abs(got-want) > 0.005+0.1*want {
			t.Errorf("p=%v: P(skip>=%d) = %v, want ~%v", p, k, got, want)
		}
	}
}

// TestGeometricSkipConsumesOneDraw pins the draw discipline the batch
// kernel's determinism relies on.
func TestGeometricSkipConsumesOneDraw(t *testing.T) {
	r, ref := New(3), New(3)
	inv := 1 / math.Log1p(-0.3)
	for i := 0; i < 50; i++ {
		r.GeometricSkip(inv)
		ref.Uint64()
	}
	if r.State() != ref.State() {
		t.Fatal("GeometricSkip consumed != 1 draw")
	}
}
