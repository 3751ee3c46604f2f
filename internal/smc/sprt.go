package smc

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Verdict is the outcome of a sequential hypothesis test.
type Verdict int

// The three verdicts. Undecided means the test has not yet crossed
// either decision boundary (or hit its replica cap before doing so).
const (
	// Undecided: neither boundary crossed yet.
	Undecided Verdict = iota
	// Accepted: the evidence settled on H1 — P[φ] ≥ θ.
	Accepted
	// Rejected: the evidence settled on H0 — P[φ] < θ.
	Rejected
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "ACCEPT (P >= theta)"
	case Rejected:
		return "REJECT (P < theta)"
	case Undecided:
		return "UNDECIDED"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// SPRT is Wald's sequential probability ratio test for a Bernoulli
// success probability p, deciding between
//
//	H0: p ≤ θ − δ   (reject: the property's probability is below θ)
//	H1: p ≥ θ + δ   (accept: the probability is at least θ)
//
// with an indifference region of half-width δ around the threshold θ.
// After n outcomes with s successes the log-likelihood ratio is
//
//	Λ = s·ln(p1/p0) + (n−s)·ln((1−p1)/(1−p0)),  p0 = θ−δ, p1 = θ+δ,
//
// and the test stops at Λ ≥ ln((1−β)/α) (accept H1) or Λ ≤ ln(β/(1−α))
// (accept H0). Wald's bounds guarantee the realized error probabilities
// α′ (accepting with p ≤ p0) and β′ (rejecting with p ≥ p1) satisfy
// α′ ≤ α/(1−β), β′ ≤ β/(1−α) and α′+β′ ≤ α+β; inside the indifference
// region (θ−δ < p < θ+δ) either verdict is considered correct. The
// expected sample count is far below the equal-error fixed-N requirement
// (FixedN) whenever the true p is away from the boundaries.
type SPRT struct {
	p0, p1     float64 // H0/H1 design points
	upper      float64 // accept boundary ln((1−β)/α)
	lower      float64 // reject boundary ln(β/(1−α))
	winS, winF float64 // per-success / per-failure Λ increments
	llr        float64
	n          int
	successes  int
	verdict    Verdict
}

// NewSPRT builds the test for threshold θ, indifference half-width δ and
// error bounds α (false accept) and β (false reject). Requirements:
// 0 < α, β < 1, δ > 0, and the design points θ±δ must stay inside
// (0, 1) — an indifference region clipped at 0 or 1 has a degenerate
// likelihood ratio.
func NewSPRT(theta, delta, alpha, beta float64) (*SPRT, error) {
	p0, p1 := theta-delta, theta+delta
	switch {
	case !(alpha > 0 && alpha < 1) || !(beta > 0 && beta < 1):
		return nil, fmt.Errorf("smc: SPRT error bounds alpha=%v beta=%v out of (0,1)", alpha, beta)
	case !(delta > 0):
		return nil, fmt.Errorf("smc: SPRT indifference half-width delta=%v, need > 0", delta)
	case !(p0 > 0) || !(p1 < 1):
		return nil, fmt.Errorf("smc: SPRT design points theta±delta = %v, %v out of (0,1)", p0, p1)
	}
	return &SPRT{
		p0:    p0,
		p1:    p1,
		upper: math.Log((1 - beta) / alpha),
		lower: math.Log(beta / (1 - alpha)),
		winS:  math.Log(p1 / p0),
		winF:  math.Log((1 - p1) / (1 - p0)),
	}, nil
}

// Add feeds one Bernoulli outcome and returns the verdict so far. Once a
// verdict is reached further outcomes are ignored (the test has
// stopped); callers batching outcomes can keep feeding and read the
// settled verdict.
func (s *SPRT) Add(success bool) Verdict {
	if s.verdict != Undecided {
		return s.verdict
	}
	s.n++
	if success {
		s.successes++
		s.llr += s.winS
	} else {
		s.llr += s.winF
	}
	switch {
	case s.llr >= s.upper:
		s.verdict = Accepted
	case s.llr <= s.lower:
		s.verdict = Rejected
	}
	return s.verdict
}

// minToStop returns the fewest further outcomes after which the test
// could stop, up to limit (0 once it has stopped). It replays Add's own
// float additions instead of dividing the distance to a boundary by an
// increment: k successes raise the LLR at least as far as any k outcomes
// do and k failures lower it at least as far (float addition is
// monotone), so the first k at which the all-success sum reaches upper
// or the all-failure sum reaches lower is exact, never an overestimate.
func (s *SPRT) minToStop(limit int) int {
	if s.verdict != Undecided {
		return 0
	}
	up, down := s.llr, s.llr
	for k := 1; k < limit; k++ {
		up += s.winS
		down += s.winF
		if up >= s.upper || down <= s.lower {
			return k
		}
	}
	return limit
}

// Verdict returns the verdict so far (Undecided until a boundary is
// crossed).
func (s *SPRT) Verdict() Verdict { return s.verdict }

// N returns the number of outcomes consumed by the test (outcomes fed
// after the verdict settled are not counted).
func (s *SPRT) N() int { return s.n }

// Successes returns how many consumed outcomes were successes.
func (s *SPRT) Successes() int { return s.successes }

// LLR returns the current log-likelihood ratio Λ.
func (s *SPRT) LLR() float64 { return s.llr }

// FixedN returns the replica count a fixed-sample-size test needs to
// separate H0: p = θ−δ from H1: p = θ+δ at the same error bounds — the
// baseline the SPRT's sequential stopping is measured against. It is the
// standard two-proportion normal-approximation size
//
//	n = ⌈( z_{1−α}·√(p0·q0) + z_{1−β}·√(p1·q1) )² / (p1−p0)² ⌉
//
// rounded up, never below 1. The SPRT's *expected* sample count beats
// this whenever the true p is away from the indifference region
// (Wald 1945, §4); the cross-validation table in EXPERIMENTS.md shows
// the measured ratio.
func FixedN(theta, delta, alpha, beta float64) int {
	p0, p1 := theta-delta, theta+delta
	za := stats.NormalQuantile(1 - alpha)
	zb := stats.NormalQuantile(1 - beta)
	num := za*math.Sqrt(p0*(1-p0)) + zb*math.Sqrt(p1*(1-p1))
	n := num * num / ((p1 - p0) * (p1 - p0))
	if !(n > 0) || math.IsInf(n, 0) {
		return 1
	}
	return int(math.Ceil(n))
}
