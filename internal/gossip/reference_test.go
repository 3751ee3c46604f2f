package gossip

import "math"

// theoreticalFloodSpread evaluates the probabilistic-flooding analogue
// of Eq. 1 for the fabric protocol itself on a fully connected mesh:
// every informed tile forwards the rumor on each of its n−1 ports
// independently with probability p per round, so an uninformed tile
// stays uninformed with probability (1−p)^I(t) and
//
//	I(t+1) = n − (n − I(t))·(1 − p)^I(t),    I(0) = 1.
//
// (Eq. 1 is the one-confidant limit: choosing a single uniform target
// gives (1−1/(n−1))^I ≈ e^(−I/n) in place of (1−p)^I.) The recursion is
// mean-field — exact in expectation conditioned on I(t), with the
// fluctuation terms dropped — and is the curve the exact law
// FloodSpreadDist is held to. It assumes every informed tile still
// buffers the rumor (TTL longer than the horizon) and a fault-free
// fabric.
func theoreticalFloodSpread(n int, p float64, rounds int) []float64 {
	out := make([]float64, rounds+1)
	out[0] = 1
	nf := float64(n)
	for t := 0; t < rounds; t++ {
		i := out[t]
		out[t+1] = nf - (nf-i)*math.Pow(1-p, i)
	}
	return out
}
