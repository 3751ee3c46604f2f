package core

import (
	"math"
	"testing"

	"repro/internal/gossip"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// floodLawZ is the referee's bound in exact standard errors: over the ~24
// interior rounds checked, a correct kernel exceeds it with probability
// about 24·7e-6, while a forwarding probability off by 10 % reads |z| > 5.
const floodLawZ = 4.5

// floodLawMoments returns the exact mean and variance of the aware count
// after each of rounds 1..rounds of a broadcast on the fully connected
// n-tile fabric, from gossip.FloodSpreadDist.
func floodLawMoments(n int, p float64, rounds int) (mean, variance []float64) {
	mean = make([]float64, rounds)
	variance = make([]float64, rounds)
	for r := 1; r <= rounds; r++ {
		var m1, m2 float64
		for k, pk := range gossip.FloodSpreadDist(n, p, r) {
			m1 += float64(k) * pk
			m2 += float64(k*k) * pk
		}
		mean[r-1] = m1
		variance[r-1] = max(0, m2-m1*m1)
	}
	return mean, variance
}

// TestForwardingMatchesExactFloodLaw referees phase 3's forwarding kernel
// against the exact law of probabilistic flooding: on topology.
// NewFullyConnected, fault free, with a TTL longer than the horizon, the
// aware count is the Markov chain of gossip.FloodSpreadDist, so the mean
// over reps independent replicas must sit within floodLawZ standard
// errors of the law's mean in every round, the standard error taken from
// the law's own variance. The fabrics run forwardGossip's hook-free
// path (the differential suites hold the hooked path to the same draws):
// degree 4 at a large p, degree 15, and degree 47 at a small p. At p = 0
// and p = 1 the law is a point mass and the match must be exact.
func TestForwardingMatchesExactFloodLaw(t *testing.T) {
	cases := []struct {
		name         string
		n            int
		p            float64
		rounds, reps int
	}{
		{"K5-p0.3", 5, 0.3, 6, 1500},
		{"K48-p0.02", 48, 0.02, 10, 300},
		{"K16-p0.2", 16, 0.2, 8, 1000},
		{"K12-p0", 12, 0, 4, 50},
		{"K12-p1", 12, 1, 4, 50},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sum := make([]float64, c.rounds)
			g := rng.New(0xF100D)
			net := new(Network)
			for i := 0; i < c.reps; i++ {
				err := net.Reset(Config{
					Topo: topology.NewFullyConnected(c.n), P: c.p,
					TTL: uint8(c.rounds + 2), MaxRounds: c.rounds + 1,
					Seed: g.Split(uint64(i)).Uint64(),
				})
				if err != nil {
					t.Fatal(err)
				}
				id := mustInject(t, net, 0, packet.Broadcast, 0, nil)
				for r := range sum {
					net.Step()
					sum[r] += float64(net.Aware(id))
				}
			}
			mean, variance := floodLawMoments(c.n, c.p, c.rounds)
			worst := 0.0
			for r := range sum {
				got := sum[r] / float64(c.reps)
				se := math.Sqrt(variance[r] / float64(c.reps))
				if se == 0 {
					if got != mean[r] {
						t.Errorf("round %d: mean aware %v, the law is a point mass at %v", r+1, got, mean[r])
					}
					continue
				}
				z := (got - mean[r]) / se
				worst = max(worst, math.Abs(z))
				if math.Abs(z) > floodLawZ {
					t.Errorf("round %d: mean aware %.4f vs exact %.4f (z = %.2f, bound %.1f)",
						r+1, got, mean[r], z, floodLawZ)
				}
			}
			t.Logf("worst |z| = %.2f over %d rounds of %d replicas", worst, c.rounds, c.reps)
		})
	}
}
