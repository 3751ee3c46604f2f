package smc

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/gossip"
	"repro/internal/topology"
)

// completeMeshModel is the cross-validation fabric: a fully connected
// fault-free n-tile mesh broadcasting from tile 0, the topology where
// gossip.FloodSpreadDist is the engine's exact law (dedup on, TTL
// beyond the horizon).
func completeMeshModel(n int, p float64, maxRounds int) Model {
	return BroadcastModel(core.Config{
		Topo: topology.NewFullyConnected(n),
		P:    p, TTL: 64, MaxRounds: maxRounds,
	}, 0, energy.Technology{})
}

// gridModel broadcasts from the center of a side×side grid.
func gridModel(side int, p float64, maxRounds int) Model {
	g := topology.NewGrid(side, side)
	return BroadcastModel(core.Config{
		Topo: g, P: p, TTL: 64, MaxRounds: maxRounds,
	}, g.ID(side/2, side/2), energy.Technology{})
}

// checkAgainstTruth runs Check twice — θ below and above the exact
// trajectory probability — and demands the matching verdicts plus the
// sequential saving over fixed-N. margin is the distance of each θ from
// the truth (several indifference widths, so a wrong verdict would be a
// genuine SPRT failure, not an indifference-region coin flip).
func checkAgainstTruth(t *testing.T, model Model, prop Property, truth, margin float64, seed uint64) {
	t.Helper()
	replica := model.Replica(prop)
	for _, tc := range []struct {
		theta float64
		want  Verdict
	}{
		{truth - margin, Accepted},
		{truth + margin, Rejected},
	} {
		cfg := CheckConfig{
			Theta: tc.theta, Delta: 0.02, Alpha: 0.01, Beta: 0.01,
			Seed: seed,
		}
		rep, err := Check(prop, replica, cfg)
		if err != nil {
			t.Fatalf("Check(%q, theta=%v): %v", prop, tc.theta, err)
		}
		if rep.Verdict != tc.want {
			t.Errorf("Check(%q): truth %.4f, theta %.4f: got %v (replicas=%d successes=%d), want %v",
				prop, truth, tc.theta, rep.Verdict, rep.Replicas, rep.Successes, tc.want)
		}
		if rep.Replicas >= rep.FixedN {
			t.Errorf("Check(%q, theta=%v): consumed %d replicas, not below fixed-N %d",
				prop, tc.theta, rep.Replicas, rep.FixedN)
		}
	}
}

// The tentpole cross-validation: SPRT verdicts on the engine must agree
// with the exact complete-mesh flood law for thresholds on both sides
// of the true trajectory probability.
func TestCheckAgreesWithFloodLawCompleteMesh(t *testing.T) {
	for _, tc := range []struct {
		n, k, rounds int
		p            float64
	}{
		{16, 6, 2, 0.1},  // truth ≈ 0.467
		{12, 9, 3, 0.15}, // truth ≈ 0.639
	} {
		truth := gossip.FloodReachProb(tc.n, tc.p, tc.k, tc.rounds)
		if truth < 0.25 || truth > 0.8 {
			t.Fatalf("test point drifted: FloodReachProb(%d,%g,%d,%d) = %v no longer mid-range",
				tc.n, tc.p, tc.k, tc.rounds, truth)
		}
		model := completeMeshModel(tc.n, tc.p, tc.rounds+2)
		prop := AwareFraction(float64(tc.k) / float64(tc.n)).Within(tc.rounds)
		checkAgainstTruth(t, model, prop, truth, 0.12, 0x5eed+uint64(tc.n))
	}
}

// On a grid the one-round event is an exact binomial: from a center
// source with 4 neighbours, "5 tiles aware within 1 round" happens iff
// all four independent port draws fire — probability p⁴, fault free.
// The acceptance fabrics: 4×4 and 8×8 grids, θ on both sides.
func TestCheckAgreesWithBinomialLawOnGrids(t *testing.T) {
	const p = 0.8 // truth = 0.8^4 = 0.4096
	truth := math.Pow(p, 4)
	for _, side := range []int{4, 8} {
		model := gridModel(side, p, 4)
		prop := AwareFraction(5.0 / float64(side*side)).Within(1)
		checkAgainstTruth(t, model, prop, truth, 0.12, 0xbeef+uint64(side))
	}
}

// p = 1 degenerates to deterministic flooding: awareness grows by
// Manhattan distance, so full coverage of a 4×4 grid from the (2,2)
// source takes exactly 4 rounds (the farthest corner is 4 hops away).
// The SPRT must accept "within 4" against θ = 0.95 and reject
// "within 3" against θ = 0.05 — the degenerate endpoints of the law.
func TestCheckDeterministicFloodingEndpoints(t *testing.T) {
	model := gridModel(4, 1, 6)
	full := AwareFraction(1)

	rep, err := Check(full.Within(4), model.Replica(full.Within(4)), CheckConfig{
		Theta: 0.95, Delta: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Accepted {
		t.Errorf("p=1 full coverage within 4: got %v, want Accepted (%s)", rep.Verdict, rep)
	}
	if rep.Successes != rep.Replicas {
		t.Errorf("p=1 flooding produced a failed trajectory: %d/%d", rep.Successes, rep.Replicas)
	}

	rep, err = Check(full.Within(3), model.Replica(full.Within(3)), CheckConfig{
		Theta: 0.05, Delta: 0.02, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Rejected {
		t.Errorf("p=1 full coverage within 3: got %v, want Rejected (%s)", rep.Verdict, rep)
	}
	if rep.Successes != 0 {
		t.Errorf("corner tile reached in under 4 rounds: %d successes", rep.Successes)
	}
}

// The Report must be deterministic in (Seed, test parameters) alone:
// the worker count, and with it the wave sizes, shifts wall-clock work,
// never the verdict or the consumed-replica count.
func TestCheckDeterministicAcrossWorkersAndBatch(t *testing.T) {
	model := completeMeshModel(16, 0.1, 4)
	prop := AwareFraction(0.375).Within(2)
	replica := model.Replica(prop)
	base := CheckConfig{Theta: 0.35, Delta: 0.02, Seed: 42}

	var first Report
	for i, cfg := range []CheckConfig{
		base,
		{Theta: 0.35, Delta: 0.02, Seed: 42, Workers: 1},
		{Theta: 0.35, Delta: 0.02, Seed: 42, Workers: 4},
		{Theta: 0.35, Delta: 0.02, Seed: 42, Workers: 7},
	} {
		rep, err := Check(prop, replica, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rep
			if first.Verdict == Undecided {
				t.Fatalf("baseline check undecided: %s", first)
			}
			continue
		}
		if rep != first {
			t.Errorf("report depends on scheduling: %+v != %+v (cfg %+v)", rep, first, cfg)
		}
	}
}

// TestCheckWavesStopWithTheSPRT is the wave referee: a check simulates
// only the replicas its SPRT consumes at Workers = 1, at most Workers−1
// more at 2, 3 and 7 workers, and reports the same at every worker count
// — on accepting, rejecting and undecided checks. The flooding cases
// decide on their first possible outcome. With p1/p0 = 2 and
// (1−β)/α = 2^12, twelve successes bring the LLR to the accept boundary
// in real arithmetic; the test's float additions reach it at the twelfth,
// while dividing the distance by the increment asks for a thirteenth.
// Two failures cross the reject boundary, where successes would need
// twelve.
func TestCheckWavesStopWithTheSPRT(t *testing.T) {
	mesh := completeMeshModel(16, 0.1, 4)
	spread := AwareFraction(0.375).Within(2)
	truth := gossip.FloodReachProb(16, 0.1, 6, 2)
	flood := gridModel(4, 1, 6) // p = 1: full coverage takes exactly 4 rounds
	full := AwareFraction(1)
	boundary := CheckConfig{Theta: 0.45, Delta: 0.15, Alpha: 1.0 / 8192, Beta: 0.5, Seed: 5}
	for _, tc := range []struct {
		name  string
		model Model
		prop  Property
		cfg   CheckConfig
		want  Verdict
	}{
		{"accept", mesh, spread, CheckConfig{Theta: truth - 0.12, Delta: 0.02, Seed: 42}, Accepted},
		{"reject", mesh, spread, CheckConfig{Theta: truth + 0.12, Delta: 0.02, Seed: 42}, Rejected},
		{"undecided at the cap", mesh, spread, CheckConfig{Theta: truth, Delta: 0.005, Seed: 3, MaxReplicas: 40}, Undecided},
		{"accept on the boundary", flood, full.Within(4), boundary, Accepted},
		{"reject on failures alone", flood, full.Within(3), boundary, Rejected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := tc.model.Replica(tc.prop)
			var first Report
			for _, workers := range []int{1, 2, 3, 7} {
				var simulated atomic.Int64
				replica := func(r int, seed uint64) (bool, error) {
					simulated.Add(1)
					return inner(r, seed)
				}
				cfg := tc.cfg
				cfg.Workers = workers
				rep, err := Check(tc.prop, replica, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					first = rep
					if rep.Verdict != tc.want {
						t.Fatalf("verdict %v, want %v (%s)", rep.Verdict, tc.want, rep)
					}
				} else if rep != first {
					t.Errorf("Workers=%d: report %+v, Workers=1 gave %+v", workers, rep, first)
				}
				if n := int(simulated.Load()); n < rep.Replicas || n > rep.Replicas+workers-1 {
					t.Errorf("Workers=%d: simulated %d replicas for %d consumed, want at most %d more",
						workers, n, rep.Replicas, workers-1)
				}
			}
		})
	}
}

// A check that cannot settle within MaxReplicas reports Undecided
// rather than erroring or spinning.
func TestCheckUndecidedAtReplicaCap(t *testing.T) {
	model := completeMeshModel(16, 0.1, 4)
	prop := AwareFraction(0.375).Within(2)
	truth := gossip.FloodReachProb(16, 0.1, 6, 2)
	rep, err := Check(prop, model.Replica(prop), CheckConfig{
		Theta: truth, // dead center of the indifference region
		Delta: 0.005, Seed: 3, MaxReplicas: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Undecided {
		// Not impossible for a short stream, but with θ at the truth and
		// only 40 replicas the LLR should still be wandering.
		t.Errorf("expected Undecided at tiny replica cap, got %s", rep)
	}
	if rep.Replicas > 40 {
		t.Errorf("consumed %d replicas past the cap of 40", rep.Replicas)
	}
}

// Parsed properties drive the same machinery: a parsed spec and its
// constructor twin yield identical reports.
func TestCheckParsedPropertyMatchesConstructor(t *testing.T) {
	model := completeMeshModel(12, 0.15, 5)
	parsed, err := Parse("aware(0.75) within 3")
	if err != nil {
		t.Fatal(err)
	}
	built := AwareFraction(0.75).Within(3)
	cfg := CheckConfig{Theta: 0.5, Delta: 0.02, Seed: 11}

	repParsed, err := Check(parsed, model.Replica(parsed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	repBuilt, err := Check(built, model.Replica(built), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repParsed != repBuilt {
		t.Errorf("parsed and constructed property disagree:\n  %+v\n  %+v", repParsed, repBuilt)
	}
}
