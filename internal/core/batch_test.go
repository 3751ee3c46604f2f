package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/gossip"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Statistical validation of the batch forwarding kernel (batch.go). The
// kernel changes which random numbers back the forwarding decisions, so
// bit-identity against the default path is not the contract — matching
// the protocol's *distribution* is. On a fully connected fabric the
// spread of a broadcast has a closed-form mean-field curve
// (gossip.TheoreticalFloodSpread); both kernels must track it, and each
// other, within Monte Carlo noise.

// awareCurve runs one replica and returns the aware-tile count after
// each of the first `rounds` rounds.
func awareCurve(t *testing.T, n, rounds int, p float64, seed uint64, batch bool) []int {
	t.Helper()
	cfg := Config{
		Topo: topology.NewFullyConnected(n), P: p,
		TTL: uint8(rounds + 2), MaxRounds: rounds + 1,
		Seed: seed, BatchDraws: batch,
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := mustInject(t, net, 0, packet.Broadcast, 0, nil)
	curve := make([]int, rounds)
	for r := 0; r < rounds; r++ {
		net.Step()
		curve[r] = net.Aware(id)
	}
	return curve
}

// meanCurves averages `reps` replica curves per kernel, with replica
// seeds split from one master so the test is fully deterministic.
func meanCurves(t *testing.T, n, rounds, reps int, p float64, master uint64) (def, batch []float64) {
	t.Helper()
	g := rng.New(master)
	def = make([]float64, rounds)
	batch = make([]float64, rounds)
	for i := 0; i < reps; i++ {
		seed := g.Split(uint64(i)).Uint64()
		for r, v := range awareCurve(t, n, rounds, p, seed, false) {
			def[r] += float64(v)
		}
		for r, v := range awareCurve(t, n, rounds, p, seed, true) {
			batch[r] += float64(v)
		}
	}
	for r := 0; r < rounds; r++ {
		def[r] /= float64(reps)
		batch[r] /= float64(reps)
	}
	return def, batch
}

// TestBatchKernelMatchesFloodRecursion is the gossip-recursion
// statistical cross-check: on fully connected fabrics the mean aware
// curve of R independent replicas must track I(t+1) = n − (n−I)(1−p)^I
// for BOTH kernels, and the two kernels' means must agree with each
// other even more tightly (same distribution, independent noise). The
// two sub-cases pin the two batch samplers:
//
//   - K5 at p = 0.3: degree 4, p ≥ 1/16 — the 16-bit mask-lane path
//     (with a threshold that does NOT fall on the 2^-16 grid, so the
//     quantization is live and must stay statistically invisible);
//   - K48 at p = 0.02: degree 47, p·trials small — the geometric
//     skip-sampling path.
func TestBatchKernelMatchesFloodRecursion(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		p      float64
		rounds int
		reps   int
	}{
		{"mask-K5-p0.3", 5, 0.3, 6, 1500},
		{"skip-K48-p0.02", 48, 0.02, 10, 300},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			def, batch := meanCurves(t, c.n, c.rounds, c.reps, c.p, 0xF100D)
			theory := gossip.TheoreticalFloodSpread(c.n, c.p, c.rounds)
			// Mean-field drops the fluctuation terms, and by Jensen
			// (I ↦ (1−p)^I is convex) it overestimates the spread at the
			// exponential-growth knee — the K48 curves sit ~11% of n
			// below the recursion there, for BOTH kernels. The theory
			// tolerance covers that structural bias; the kernel-vs-kernel
			// tolerance is the sharp check — a CLT bound (per-round std
			// is at most ~n/2, so 6·(n/2)/√(2·reps) never flags
			// same-distribution noise) that a percent-level p bias on
			// the steep rounds would trip.
			tolTheory := 0.15 * float64(c.n)
			tolKernel := 6 * (float64(c.n) / 2) / math.Sqrt(2*float64(c.reps))
			for r := 0; r < c.rounds; r++ {
				if d := math.Abs(batch[r] - theory[r+1]); d > tolTheory {
					t.Errorf("round %d: batch mean %v vs recursion %v (|Δ|=%.2f > %.2f)",
						r+1, batch[r], theory[r+1], d, tolTheory)
				}
				if d := math.Abs(def[r] - theory[r+1]); d > tolTheory {
					t.Errorf("round %d: default mean %v vs recursion %v (|Δ|=%.2f > %.2f)",
						r+1, def[r], theory[r+1], d, tolTheory)
				}
				if d := math.Abs(batch[r] - def[r]); d > tolKernel {
					t.Errorf("round %d: batch mean %v vs default mean %v (|Δ|=%.2f > %.2f)",
						r+1, batch[r], def[r], d, tolKernel)
				}
			}
		})
	}
}

// TestBatchKernelEdgeProbabilities pins the draw-free edges: p = 1 floods
// every port (identically to the default kernel, which also skips the
// draws there) and p = 0 never forwards.
func TestBatchKernelEdgeProbabilities(t *testing.T) {
	for _, p := range []float64{0, 1} {
		var curves [2][]int
		for k, batch := range []bool{false, true} {
			curves[k] = awareCurve(t, 12, 4, p, 7, batch)
		}
		// No interior draws exist at the edges, so the kernels must agree
		// exactly, not just in distribution.
		for r := range curves[0] {
			if curves[0][r] != curves[1][r] {
				t.Fatalf("p=%v round %d: default %d vs batch %d aware tiles",
					p, r+1, curves[0][r], curves[1][r])
			}
		}
		want := 1
		if p == 1 {
			want = 12
		}
		if got := curves[1][len(curves[1])-1]; got != want {
			t.Fatalf("p=%v: %d aware tiles after flood window, want %d", p, got, want)
		}
	}
}

// TestSnapshotPreservesBatchKernel pins the checkpoint contract of the
// kernel knob: a BatchDraws run snapshots and resumes bit-identically
// under the same knob, and a restore under the opposite knob — either
// direction — is refused before it can silently change the realization.
func TestSnapshotPreservesBatchKernel(t *testing.T) {
	cfg := Config{
		Topo: topology.NewGrid(6, 6), P: 0.35, TTL: 10,
		MaxRounds: 100, Seed: 0xBA7C4, BatchDraws: true,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustInject(t, n, 3, packet.Broadcast, 0, []byte("batch"))
	for i := 0; i < 5; i++ {
		n.Step()
	}
	ckpt := snapshotBytes(t, n)

	// Same-knob restore: continues exactly as the original.
	r1, err := Restore(bytes.NewReader(ckpt), cfg)
	if err != nil {
		t.Fatalf("same-kernel restore: %v", err)
	}
	for i := 0; i < 8; i++ {
		n.Step()
		r1.Step()
	}
	if !bytes.Equal(snapshotBytes(t, n), snapshotBytes(t, r1)) {
		t.Fatal("batch-kernel resume diverged from the uninterrupted run")
	}

	// Kernel-mismatch restores are refused, both directions.
	off := cfg
	off.BatchDraws = false
	if _, err := Restore(bytes.NewReader(ckpt), off); err == nil ||
		!strings.Contains(err.Error(), "BatchDraws") {
		t.Fatalf("restore under BatchDraws=false accepted a batch checkpoint (err=%v)", err)
	}
	nOff, err := New(off)
	if err != nil {
		t.Fatal(err)
	}
	mustInject(t, nOff, 3, packet.Broadcast, 0, []byte("batch"))
	nOff.Step()
	ckptOff := snapshotBytes(t, nOff)
	if _, err := Restore(bytes.NewReader(ckptOff), cfg); err == nil ||
		!strings.Contains(err.Error(), "BatchDraws") {
		t.Fatalf("restore under BatchDraws=true accepted a default checkpoint (err=%v)", err)
	}
}
