// Package rng provides a deterministic, splittable pseudo-random number
// generator for reproducible NoC simulation.
//
// The generator is xoshiro256** seeded through SplitMix64, following the
// reference constructions by Blackman & Vigna. Every simulation entity
// (tile, link, fault injector) derives its own independent stream with
// Split, so adding or removing one consumer never perturbs the random
// sequence observed by the others — a property the experiment harness
// relies on when sweeping a single parameter.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random stream. It is NOT safe for
// concurrent use; derive one Stream per goroutine with Split.
type Stream struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is used
// only for seeding, as recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from seed. Distinct seeds give streams that
// are, for simulation purposes, statistically independent. Like Split it
// inlines, so a stream that does not outlive its caller stays off the
// heap.
func New(seed uint64) *Stream {
	st := seeded(seed)
	return &st
}

// seeded is New's stream, by value.
func seeded(seed uint64) Stream {
	var st Stream
	x := seed
	for i := range st.s {
		st.s[i] = splitmix64(&x)
	}
	// xoshiro256** must not start from the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// State exports the stream's internal xoshiro256** state. Together with
// SetState it forms the checkpoint surface of the simulator: a Stream
// restored from a captured state produces exactly the sequence the
// original would have produced from that point on. The state is never
// all-zero (New, Split and SetState all exclude it).
func (r *Stream) State() [4]uint64 { return r.s }

// SetState overwrites the stream's state with one previously captured by
// State. The all-zero state is not a valid xoshiro256** state (the
// generator would emit zeros forever) and is rejected, which also makes
// SetState safe on unvalidated checkpoint data.
func (r *Stream) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("rng: SetState with all-zero state")
	}
	r.s = s
	return nil
}

// Uint64 returns the next 64 uniformly distributed bits. It works on a
// local copy of the state so that it fits the compiler's inlining budget:
// the forwarding loop draws one coin per (message, port), and a call per
// coin is a measurable share of a round.
func (r *Stream) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Split derives a new independent Stream identified by label. Splitting is
// deterministic: the same parent state and label always yield the same
// child, and the parent's own sequence is not advanced. Split inlines, so
// a caller that copies the child out (*r.Split(label)) allocates nothing.
func (r *Stream) Split(label uint64) *Stream {
	st := r.child(label)
	return &st
}

// child is Split's child stream, by value.
func (r *Stream) child(label uint64) Stream {
	// Mix the parent state with the label through SplitMix64 so that
	// nearby labels (0, 1, 2, ...) still produce well-separated seeds.
	x := r.s[0] ^ bits.RotateLeft64(r.s[2], 29) ^ (label * 0xd1342543de82ef95)
	var st Stream
	for i := range st.s {
		st.s[i] = splitmix64(&x)
	}
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 1
	}
	return st
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold is a Bernoulli probability in 53-bit fixed point: the integer
// ceil(p·2^53), against which a 53-bit uniform draw is compared. Zero
// means "never" and ThresholdAlways means "always"; both are decided
// without consuming a draw, exactly like Bool's p <= 0 / p >= 1 early
// returns (a determinism property pinned by tests). Precompute thresholds
// once per configuration with MakeThreshold and hand them to BoolT in hot
// loops: the per-draw cost drops to one integer compare, with zero change
// in the decisions made.
type Threshold uint64

// ThresholdAlways is the Threshold for p >= 1. Any value > 2^53-1 would
// do (a 53-bit draw can never reach it); the distinguished constant also
// lets BoolT skip the draw, mirroring Bool(p >= 1).
const ThresholdAlways Threshold = 1 << 53

// MakeThreshold converts a probability to its fixed-point threshold.
// p outside [0, 1] is clamped, like Bool. The conversion is exact: for
// p in (0, 1), p·2^53 only shifts the float's exponent (no rounding), and
// Ceil of an exactly-represented value is exact, so
//
//	BoolT(MakeThreshold(p)) ≡ Bool(p)   for every float64 p and
//	                                    every stream state,
//
// including the draws consumed. The equivalence argument, in full: Bool
// tests float64(u)/2^53 < p with u = Uint64()>>11 < 2^53. Both sides are
// exact (u fits a float64 mantissa; /2^53 shifts the exponent), so the
// comparison equals the real-number comparison u < p·2^53, and for
// integer u that is u < ceil(p·2^53). BoolT tests exactly that.
func MakeThreshold(p float64) Threshold {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return ThresholdAlways
	}
	return Threshold(math.Ceil(p * (1 << 53)))
}

// BoolT returns true with the probability t encodes, consuming one draw —
// except for the never/always thresholds, which (like Bool at p <= 0 and
// p >= 1) are decided without touching the stream.
func (r *Stream) BoolT(t Threshold) bool {
	// One unsigned compare sorts out both edges (t-1 wraps for t = 0), so
	// that BoolT, with Uint64 inlined into it, still fits the inlining
	// budget.
	if t-1 < ThresholdAlways-1 {
		return r.Uint64()>>11 < uint64(t)
	}
	return t != 0
}

// BoolsT returns k outcomes of BoolT(t) as a mask: bit i is the i-th
// call's. It consumes exactly the draws those k calls would — k of them,
// or none at the never/always thresholds — so a caller may draw a run of
// coins ahead and act on them afterwards without changing the stream. k
// must lie in [0, 64].
func (r *Stream) BoolsT(t Threshold, k int) uint64 {
	if uint(k) > 64 {
		panic("rng: BoolsT with k outside [0, 64]")
	}
	if t-1 >= ThresholdAlways-1 {
		if t == 0 {
			return 0
		}
		return ^uint64(0) >> (64 - k)
	}
	// With both sides below 2^53, u>>11 - t underflows, setting bit 63,
	// exactly when u>>11 < t: the coin needs no branch.
	var m uint64
	for i := range k {
		m |= (r.Uint64()>>11 - uint64(t)) >> 63 << i
	}
	return m
}

// Bool returns true with probability p. p outside [0, 1] is clamped.
// It is exactly BoolT(MakeThreshold(p)); callers that test the same p
// repeatedly should precompute the threshold.
func (r *Stream) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Uint64()>>11 < uint64(MakeThreshold(p))
}

// GeometricSkip returns the number of consecutive failures preceding the
// next success in an implicit sequence of independent Bernoulli(p)
// trials, consuming exactly one draw. invLn1mP must be 1/ln(1−p) for a p
// strictly inside (0, 1), precomputed once per configuration. It is the
// inverse-CDF geometric sampler: with U uniform on (0, 1],
//
//	⌊ln(U)/ln(1−p)⌋ ≥ k  ⟺  U ≤ (1−p)^k,
//
// so the returned count satisfies P(skip ≥ k) = (1−p)^k — exactly the
// law of a failure run, up to float rounding in the logarithm (≲1 ulp,
// against Bool's exact 2^-53 grid). Jumping straight to the next success
// replaces one draw per trial with one draw per success — the standard
// sparse Bernoulli subset-sampling trick. No engine path uses it; it
// stays because the repository benchmark's rng.geomskip_ns kernel
// (bench/kernels.go) times it.
func (r *Stream) GeometricSkip(invLn1mP float64) int {
	u := 1 - r.Float64() // (0, 1]: ln stays finite
	return int(math.Log(u) * invLn1mP)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box–Muller transform.
func (r *Stream) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation.
func (r *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Perm returns a random permutation of [0, n) using Fisher–Yates.
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomly permutes the first n elements using the provided swap
// function, matching the contract of math/rand.Shuffle.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *Stream) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	p := r.Perm(n)
	return p[:k]
}

// Exponential returns an exponentially distributed float64 with the given
// rate parameter lambda (> 0).
func (r *Stream) Exponential(lambda float64) float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u) / lambda
	}
}
