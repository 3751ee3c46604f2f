package packet

// Error models for arbitrary link failures, thesis Chapter 2.
//
// If a message contains n bits, the error vector is e = (e1, ..., en) with
// ei = 1 iff bit i is corrupted. Two stochastic models are defined:
//
//   - Random error vector: all 2^n - 1 non-null vectors are equally likely,
//     so p_upset = (2^n - 1) p_v ≈ 2^n p_v  =>  p_v ≈ p_upset / 2^n.
//   - Random bit error: bits fail independently with probability p_b, so
//     p_upset = 1 - (1 - p_b)^n ≈ n p_b     =>  p_b ≈ p_upset / n.
//
// Both models are implemented as in-place corruptors of an encoded frame.

import (
	"math"

	"repro/internal/rng"
)

// ErrorModel selects how a data upset scrambles a frame. The zero value
// flips a uniformly random non-empty subset of the frame's bits
// (Chapter 2's random error vector model).
type ErrorModel int

const (
	// RandomBitError flips each bit independently with probability
	// p_b = p_upset / n, conditioned on at least one flip so that the
	// upset is never a no-op.
	RandomBitError ErrorModel = iota + 1
	// SingleBitError flips exactly one uniformly random bit — the classic
	// SEU (single-event upset) caused by a particle strike.
	SingleBitError
)

// Corrupt applies the model's error vector to frame in place, using r for
// randomness. pupset parameterizes RandomBitError's per-bit probability;
// the other models ignore it. Corrupt guarantees at least one bit flips,
// so a frame passed through Corrupt always differs from the original.
func Corrupt(model ErrorModel, frame []byte, pupset float64, r *rng.Stream) {
	if len(frame) == 0 {
		return
	}
	nbits := len(frame) * 8
	switch model {
	case SingleBitError:
		flipBit(frame, r.Intn(nbits))
	case RandomBitError:
		pb := PbFromUpset(pupset, nbits)
		flipped := false
		for bit := 0; bit < nbits; bit++ {
			if r.Bool(pb) {
				flipBit(frame, bit)
				flipped = true
			}
		}
		if !flipped {
			flipBit(frame, r.Intn(nbits))
		}
	default: // the zero value, the random error vector
		// A uniformly random non-null error vector: flip each bit with
		// probability 1/2, rejecting the all-zero outcome. For frames of
		// realistic size the rejection probability is negligible, but we
		// still guarantee progress for tiny frames.
		flipped := false
		for bit := 0; bit < nbits; bit++ {
			if r.Bool(0.5) {
				flipBit(frame, bit)
				flipped = true
			}
		}
		if !flipped {
			flipBit(frame, r.Intn(nbits))
		}
	}
}

func flipBit(frame []byte, bit int) {
	frame[bit/8] ^= 1 << uint(7-bit%8)
}

// PbFromUpset converts a packet-level upset probability into the per-bit
// probability p_b ≈ p_upset / n of the random bit error model.
func PbFromUpset(pupset float64, nbits int) float64 {
	if nbits <= 0 {
		return 0
	}
	// Exact inversion of p_upset = 1 - (1-p_b)^n; falls back to the
	// thesis' linear approximation for tiny p where the exact form loses
	// precision.
	if pupset <= 0 {
		return 0
	}
	if pupset >= 1 {
		return 1
	}
	pb := 1 - math.Pow(1-pupset, 1/float64(nbits))
	if pb <= 0 {
		pb = pupset / float64(nbits)
	}
	return pb
}
