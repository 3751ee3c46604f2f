package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOnlineBasics(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N = %d", o.N())
	}
	if !almostEq(o.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", o.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if !almostEq(o.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v", o.Variance())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 || o.StdDev() != 0 || o.CI95() != 0 {
		t.Fatal("empty accumulator non-zero")
	}
}

func TestOnlineSingleSample(t *testing.T) {
	var o Online
	o.Add(3.5)
	if o.Mean() != 3.5 || o.Variance() != 0 || o.CI95() != 0 {
		t.Fatalf("single sample: mean=%v var=%v", o.Mean(), o.Variance())
	}
	if o.Min() != 3.5 || o.Max() != 3.5 {
		t.Fatal("single-sample min/max wrong")
	}
}

func TestOnlineNegativeValues(t *testing.T) {
	var o Online
	o.Add(-5)
	o.Add(5)
	if o.Mean() != 0 || o.Min() != -5 || o.Max() != 5 {
		t.Fatalf("negative handling: %+v", Summarize(&o))
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large Online
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 2))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 2))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestSummaryString(t *testing.T) {
	var o Online
	o.Add(1)
	o.Add(2)
	s := Summarize(&o).String()
	if !strings.Contains(s, "n=2") {
		t.Fatalf("Summary.String() = %q", s)
	}
}

func TestQuickOnlineMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var o Online
		sum := 0.0
		for _, x := range clean {
			o.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(mean))
		return almostEq(o.Mean(), mean, 1e-6*scale) &&
			almostEq(o.Variance(), variance, 1e-4*math.Max(1, variance))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestLinRegExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	a, b, r2 := LinReg(xs, ys)
	if !almostEq(a, 1, 1e-12) || !almostEq(b, 2, 1e-12) || !almostEq(r2, 1, 1e-12) {
		t.Fatalf("a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLinRegNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := []float64{0.1, 0.9, 2.2, 2.8, 4.1, 4.9}
	_, b, r2 := LinReg(xs, ys)
	if b < 0.9 || b > 1.1 {
		t.Fatalf("slope = %v", b)
	}
	if r2 < 0.98 {
		t.Fatalf("r2 = %v", r2)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	if _, _, r2 := LinReg([]float64{1}, []float64{2}); r2 != 0 {
		t.Fatal("single point fit")
	}
	if _, _, r2 := LinReg([]float64{2, 2, 2}, []float64{1, 2, 3}); r2 != 0 {
		t.Fatal("vertical data fit")
	}
	a, b, r2 := LinReg([]float64{1, 2, 3}, []float64{5, 5, 5})
	if a != 5 || b != 0 || r2 != 1 {
		t.Fatalf("constant y: a=%v b=%v r2=%v", a, b, r2)
	}
	if _, _, r2 := LinReg([]float64{1, 2}, []float64{1}); r2 != 0 {
		t.Fatal("length mismatch fit")
	}
}

func TestNormalQuantile(t *testing.T) {
	// Textbook z-values.
	for _, tc := range []struct{ p, z float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.99, 2.326348},
		{0.025, -1.959964},
	} {
		if got := NormalQuantile(tc.p); !almostEq(got, tc.z, 1e-5) {
			t.Errorf("NormalQuantile(%v) = %v, want %v", tc.p, got, tc.z)
		}
	}
	// Symmetry: Φ⁻¹(p) = −Φ⁻¹(1−p).
	for _, p := range []float64{0.6, 0.9, 0.999} {
		if got, want := NormalQuantile(p), -NormalQuantile(1-p); !almostEq(got, want, 1e-12) {
			t.Errorf("NormalQuantile not symmetric at %v: %v vs %v", p, got, want)
		}
	}
	if !math.IsInf(NormalQuantile(1), 1) || !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile endpoints must be ±Inf")
	}
}
