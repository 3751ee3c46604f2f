package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

// TestKnownAnswer pins the generator to fixed outputs: TestDeterminism
// only compares two streams with each other, so a rewrite of Uint64 that
// changed both alike would pass it. From the state {1, 2, 3, 4} the
// published xoshiro256** reference emits these four values.
func TestKnownAnswer(t *testing.T) {
	var r Stream
	if err := r.SetState([4]uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{11520, 0, 1509978240, 1215971899390074240} {
		if got := r.Uint64(); got != want {
			t.Fatalf("output %d: got %d, want %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with distinct seeds collided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("zero-seeded stream produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitDeterministic(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(3)
	c2 := parent.Split(3)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("Split with same label diverged at %d", i)
		}
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split(1)
	_ = a.Split(2)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split advanced the parent stream (step %d)", i)
		}
	}
}

func TestSplitLabelsIndependent(t *testing.T) {
	parent := New(11)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	same := 0
	for i := 0; i < 200; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams collided %d/200 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(17)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bool(%v) frequency = %v", p, got)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(23)
	for _, n := range []int{1, 2, 3, 7, 100} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(29)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		got := float64(c) / draws
		if math.Abs(got-0.1) > 0.01 {
			t.Errorf("Intn(10) bucket %d frequency = %v", i, got)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormalScaling(t *testing.T) {
	r := New(37)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(5, 2)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.05 {
		t.Errorf("Normal(5,2) mean = %v", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(43)
	s := r.Sample(20, 5)
	if len(s) != 5 {
		t.Fatalf("Sample returned %d values", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Sample invalid: %v", s)
		}
		seen[v] = true
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 5) did not panic")
		}
	}()
	New(1).Sample(3, 5)
}

func TestExponentialMean(t *testing.T) {
	r := New(53)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exponential(2) mean = %v, want ~0.5", mean)
	}
}

// Property: Split is a pure function of (parent state, label).
func TestQuickSplitPurity(t *testing.T) {
	f := func(seed, label uint64) bool {
		p := New(seed)
		a := p.Split(label)
		b := p.Split(label)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intn stays within bounds for arbitrary positive n.
func TestQuickIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 32; i++ {
			if v := r.Intn(bound); v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func TestStateRoundTrip(t *testing.T) {
	src := New(99)
	for i := 0; i < 37; i++ { // advance off the seed state
		src.Uint64()
	}
	snap := src.State()
	restored := New(0)
	if err := restored.SetState(snap); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if got, want := restored.Uint64(), src.Uint64(); got != want {
			t.Fatalf("restored stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestStateDoesNotAdvance(t *testing.T) {
	s := New(7)
	before := s.State()
	_ = s.State()
	if s.State() != before {
		t.Fatal("State() advanced the stream")
	}
	if s.Uint64() == 0 && s.State() == before {
		t.Fatal("stream did not advance after Uint64")
	}
}

func TestSetStateRejectsZero(t *testing.T) {
	s := New(1)
	before := s.State()
	if err := s.SetState([4]uint64{}); err == nil {
		t.Fatal("SetState accepted the all-zero state")
	}
	if s.State() != before {
		t.Fatal("rejected SetState mutated the stream")
	}
}
