// Package gossip implements the randomized rumor-spreading theory of
// thesis §3.1 (after Pittel, "On spreading a rumor", and Demers et al.).
//
// In a fully connected network of n nodes, one initiator knows a rumor at
// round 0. Every informed node passes the rumor to one uniformly random
// other node per round. The number of informed nodes I(t) is tightly
// approximated by the deterministic recursion
//
//	I(t+1) = n − (n − I(t))·e^(−I(t)/n),     I(0) = 1,       (Eq. 1)
//
// and the number of rounds to inform everyone is
//
//	S_n = log2 n + ln n + O(1)  as n → ∞,
//
// so a broadcast completes in O(log n) rounds w.h.p. — the foundation for
// stopping the on-chip spread after O(ln n) rounds via the TTL.
package gossip

import (
	"math"

	"repro/internal/rng"
)

// TheoreticalSpread evaluates the Eq. 1 recursion, returning I(0..rounds)
// (length rounds+1). n must be >= 1.
func TheoreticalSpread(n, rounds int) []float64 {
	out := make([]float64, rounds+1)
	out[0] = 1
	nf := float64(n)
	for t := 0; t < rounds; t++ {
		i := out[t]
		out[t+1] = nf - (nf-i)*math.Exp(-i/nf)
	}
	return out
}

// FloodSpreadDist returns the exact probability distribution of the
// informed-tile count after `rounds` rounds of probabilistic flooding on
// a fully connected fault-free n-tile fabric: out[k] = P[I(rounds) = k]
// (length n+1; out[0] is always 0 — the initiator knows the rumor).
//
// On a complete graph the informed count is a Markov chain: by symmetry,
// given I(t) = i every one of the n−i uninformed tiles independently
// receives at least one copy during round t+1 with probability
// q_i = 1 − (1−p)^i (each of the i informed tiles forwards on the port
// toward it independently with probability p), so
//
//	I(t+1) − i  ~  Binomial(n−i, 1 − (1−p)^i).
//
// This is the exact law whose conditional expectation, iterated with the
// fluctuations dropped, is the mean-field recursion
// I(t+1) = n − (n − I(t))·(1 − p)^I(t), the probabilistic-flooding
// analogue of Eq. 1. It matches the engine's dynamics on a fully connected
// topology exactly — fault free, dedup on, TTL longer than the horizon —
// because a tile informed during round t (phase 4) starts forwarding in
// round t+1 (phase 3), which is the statistical-model-checking ground
// truth internal/smc cross-validates SPRT verdicts against. O(rounds·n²).
func FloodSpreadDist(n int, p float64, rounds int) []float64 {
	dist := make([]float64, n+1)
	dist[1] = 1
	next := make([]float64, n+1)
	for t := 0; t < rounds; t++ {
		for k := range next {
			next[k] = 0
		}
		for i := 1; i <= n; i++ {
			if dist[i] == 0 {
				continue
			}
			q := 1 - math.Pow(1-p, float64(i))
			// Binomial(n−i, q) pmf, computed incrementally from j = 0.
			m := n - i
			pmf := math.Pow(1-q, float64(m))
			for j := 0; ; j++ {
				next[i+j] += dist[i] * pmf
				if j >= m {
					break
				}
				if q >= 1 {
					// Degenerate flood step: everyone is informed at once.
					pmf = 0
					if j+1 == m {
						pmf = 1
					}
					continue
				}
				pmf *= float64(m-j) / float64(j+1) * q / (1 - q)
			}
		}
		dist, next = next, dist
	}
	return dist
}

// FloodReachProb returns the exact probability that probabilistic
// flooding on a fully connected fault-free n-tile fabric informs at
// least k tiles within `rounds` rounds. Because awareness is monotone
// (an informed tile never forgets), "within" equals "at": the result is
// P[I(rounds) ≥ k] summed from FloodSpreadDist.
func FloodReachProb(n int, p float64, k, rounds int) float64 {
	dist := FloodSpreadDist(n, p, rounds)
	if k < 0 {
		k = 0
	}
	var sum float64
	for j := len(dist) - 1; j >= k; j-- {
		sum += dist[j]
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// ExpectedRounds returns the Pittel estimate S_n ≈ log2 n + ln n of the
// number of rounds until all n nodes are informed.
func ExpectedRounds(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(float64(n)) + math.Log(float64(n))
}

// SimulateSpread runs one push-gossip epidemic over a fully connected
// network of n nodes and returns the informed count after each round,
// starting with I(0) = 1, until everyone is informed or maxRounds passes.
func SimulateSpread(n, maxRounds int, r *rng.Stream) []int {
	informed := make([]bool, n)
	informed[0] = true
	count := 1
	curve := []int{1}
	for t := 0; t < maxRounds && count < n; t++ {
		// All informed nodes choose their targets simultaneously (the
		// round-synchronous model of §3.1): snapshot first.
		var snapshot []int
		for i, in := range informed {
			if in {
				snapshot = append(snapshot, i)
			}
		}
		for _, i := range snapshot {
			// Choose a confidant uniformly among the other n-1 nodes.
			j := r.Intn(n - 1)
			if j >= i {
				j++
			}
			if !informed[j] {
				informed[j] = true
				count++
			}
		}
		curve = append(curve, count)
	}
	return curve
}

// RoundsToInform runs SimulateSpread and returns the number of rounds
// needed to inform all n nodes, or -1 if maxRounds was insufficient.
func RoundsToInform(n, maxRounds int, r *rng.Stream) int {
	curve := SimulateSpread(n, maxRounds, r)
	if curve[len(curve)-1] < n {
		return -1
	}
	return len(curve) - 1
}
