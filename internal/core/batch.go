package core

import (
	"math"

	"repro/internal/rng"
)

// This file holds the batched forwarding-draw kernel (Config.BatchDraws).
//
// Phase 3's default path pays one RNG draw per buffered message per port.
// On draw-dominated workloads — dense buffers, small forwarding p — the
// draws themselves are most of the round, and two classic samplers cut
// them down without changing what the protocol does:
//
//   - Mask lanes (forwardMask): one 64-bit draw per message, split into
//     four 16-bit uniform lanes, one lane compared per port. Replaces d
//     draws with one for degree ≤ 4 (every grid/torus tile). The lane
//     compare quantizes p to the nearest multiple of 2^-16 (≤ 2^-17
//     absolute error, exact whenever p·2^16 is integral — p = 0.5, 0.25,
//     ...); to keep the *relative* error below ~10^-4 the mask is only
//     used for p ≥ 1/16, smaller p being the skip sampler's territory.
//   - Geometric skip (forwardSkip): flatten the tile's (message, port)
//     trials into one sequence and jump straight to the next success
//     with rng.GeometricSkip — one draw per transmission instead of one
//     per trial, exactly Bernoulli(p)-distributed (inverse-CDF sampling;
//     see the rng doc for the proof sketch).
//
// Which sampler runs is a per-tile, per-round cost decision on exact
// integer state (buffered count, degree) plus config constants, so it is
// identical across hooked, hook-free and snapshot-resumed runs — the
// differential suite holds the kernel to that. Event ordering is
// unchanged: trials are visited in the same ascending (message, port)
// order the default loop uses, only the draws backing the decisions
// differ. The kernel never runs for tiles with a
// router or when PortWeight is set (those paths keep per-port draws),
// and p ≤ 0 / p ≥ 1 are decided without consuming randomness, exactly
// like rng.BoolT at the never/always thresholds.

// maskMaxDegree is the widest fan-out the 16-bit mask lanes cover.
const maskMaxDegree = 4

// maskMinP is the smallest p the mask path handles: below it the 2^-17
// absolute lane quantization would exceed ~10^-4 of p itself.
const maskMinP = 1.0 / 16

// maskLaneBits is the width of one port's uniform lane in the mask draw.
const maskLaneBits = 16

// skipDrawCost is the cost of one GeometricSkip draw (a Float64 and a
// math.Log) in units of one threshold-compare draw, for the kernel
// choice. Approximate by design — it only steers which sampler runs,
// never what is sampled.
const skipDrawCost = 8

// maskThreshold16 converts p to the 16-bit lane threshold: a lane
// forwards iff its 16 uniform bits are < the threshold. Round to
// nearest, so the quantization error is at most 2^-17 in either
// direction; 1<<16 means "always" (a 16-bit lane is always below it).
func maskThreshold16(p float64) uint32 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1 << maskLaneBits
	}
	return uint32(math.Floor(p*(1<<maskLaneBits) + 0.5))
}

// skipConstant returns 1/ln(1−p), the precomputed constant
// rng.GeometricSkip consumes, or 0 when p is outside (0, 1) and the
// skip sampler can never run.
func skipConstant(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return 1 / math.Log1p(-p)
}

// forwardBatch forwards one tile's round under the batch kernel: count
// messages starting at ring-buffer position cur (the same round-robin
// window the default path walks). Caller guarantees t.router == nil and
// cfg.PortWeight == nil.
func (n *Network) forwardBatch(t *tile, cur, count, buffered int) {
	ports := n.ports(t)
	d := len(ports)
	if d == 0 || n.pThresh == 0 {
		return
	}
	if n.pThresh >= rng.ThresholdAlways {
		// Flooding: every port, no draws — same as BoolT(ThresholdAlways).
		for i := 0; i < count; i++ {
			idx := cur + i
			if idx >= buffered {
				idx -= buffered
			}
			p := &t.sendBuf[idx]
			for _, e := range ports {
				n.transmit(t, e, p)
			}
		}
		return
	}
	// Expected draw cost: the skip sampler pays ~skipDrawCost per
	// transmission plus one priming draw; the alternative pays one cheap
	// draw per trial, or per message if the mask lanes apply.
	trials := count * d
	alt := trials
	maskOK := d <= maskMaxDegree && n.cfg.P >= maskMinP
	if maskOK {
		alt = count
	}
	if float64(skipDrawCost)*(1+float64(trials)*n.cfg.P) < float64(alt) {
		n.forwardSkip(t, cur, count, buffered, d)
		return
	}
	if maskOK {
		n.forwardMask(t, cur, count, buffered)
		return
	}
	// High-degree tile (or tiny p with dense fan-out): the exact
	// per-port draws, same as the default path.
	for i := 0; i < count; i++ {
		idx := cur + i
		if idx >= buffered {
			idx -= buffered
		}
		p := &t.sendBuf[idx]
		for _, e := range ports {
			if !t.rnd.BoolT(n.pThresh) {
				continue
			}
			n.transmit(t, e, p)
		}
	}
}

// forwardMask draws one 64-bit mask per message and decides each port
// from its own 16-bit lane.
func (n *Network) forwardMask(t *tile, cur, count, buffered int) {
	ports := n.ports(t)
	for i := 0; i < count; i++ {
		idx := cur + i
		if idx >= buffered {
			idx -= buffered
		}
		p := &t.sendBuf[idx]
		mask := t.rnd.Uint64()
		for pi, e := range ports {
			lane16 := uint32(mask>>(uint(pi)*maskLaneBits)) & (1<<maskLaneBits - 1)
			if lane16 >= n.batchT16 {
				continue
			}
			n.transmit(t, e, p)
		}
	}
}

// forwardSkip flattens the tile's trials — trial j is port j%d of the
// window's message j/d — and geometric-skips from success to success.
func (n *Network) forwardSkip(t *tile, cur, count, buffered, d int) {
	trials := count * d
	ports := n.ports(t)
	j := t.rnd.GeometricSkip(n.invLn1mP)
	for j < trials {
		idx := cur + j/d
		if idx >= buffered {
			idx -= buffered
		}
		n.transmit(t, ports[j%d], &t.sendBuf[idx])
		j += 1 + t.rnd.GeometricSkip(n.invLn1mP)
	}
}
