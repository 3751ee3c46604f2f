package directed

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

func TestGridBiasValidation(t *testing.T) {
	g := topology.NewGrid(4, 4)
	if _, err := GridBias(g, -0.1); err != ErrBadBias {
		t.Fatalf("err = %v", err)
	}
	if _, err := GridBias(g, 1.5); err != ErrBadBias {
		t.Fatalf("err = %v", err)
	}
	if _, err := GridBias(g, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestGridBiasWeights(t *testing.T) {
	g := topology.NewGrid(4, 4)
	w, err := GridBias(g, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	pkt := &packet.Packet{Dst: g.ID(3, 0)}
	// From (1,0): toward (2,0) decreases distance, toward (0,0) increases.
	if got := w(g.ID(1, 0), g.ID(2, 0), pkt); got != 1.6 {
		t.Fatalf("forward weight = %v", got)
	}
	if got := w(g.ID(1, 0), g.ID(0, 0), pkt); got != 0.4 {
		t.Fatalf("backward weight = %v", got)
	}
	// Broadcast: neutral everywhere.
	b := &packet.Packet{Dst: packet.Broadcast}
	if got := w(g.ID(1, 0), g.ID(0, 0), b); got != 1 {
		t.Fatalf("broadcast weight = %v", got)
	}
}

// run measures (mean latency, mean transmissions, completion rate) over
// seeds for a (1,1)->(6,6) unicast on an 8x8 grid. Each run stops at the
// delivery, then drains, so its transmissions are the whole bill.
func run(t *testing.T, bias float64, deadTiles int, runs int, stopSpread bool) (lat, tx stats.Summary, completion float64) {
	t.Helper()
	g := topology.NewGrid(8, 8)
	src, dst := g.ID(1, 1), g.ID(6, 6)
	s := sim.Scenario{
		Config: core.Config{
			Topo: g, P: 0.5, TTL: 24, MaxRounds: 120,
			StopSpreadOnDelivery: stopSpread,
			Fault:                fault.Model{DeadTiles: deadTiles, Protect: []packet.TileID{src, dst}},
		},
		Src: src, Dst: dst, Kind: 1, Payload: 1, Rounds: 120, StopAtDelivery: true,
	}
	if bias > 0 {
		w, err := GridBias(g, bias)
		if err != nil {
			t.Fatal(err)
		}
		s.Config.PortWeight = w
	}
	var latAcc, txAcc stats.Online
	completed := 0
	for seed := uint64(0); seed < uint64(runs); seed++ {
		s.Config.Seed = seed
		trial, err := s.Run(sim.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if trial.Delivered < 0 {
			continue
		}
		completed++
		latAcc.Add(float64(trial.Delivered))
		trial.Net.Drain(64)
		txAcc.Add(float64(trial.Net.Counters().Energy.Transmissions))
	}
	return stats.Summarize(&latAcc), stats.Summarize(&txAcc), float64(completed) / float64(runs)
}

func TestBiasImprovesLatency(t *testing.T) {
	pureLat, _, pureOK := run(t, 0, 0, 20, false)
	biasLat, _, biasOK := run(t, 0.8, 0, 20, false)
	if pureOK < 0.9 || biasOK < 0.9 {
		t.Fatalf("completion: pure %v, biased %v", pureOK, biasOK)
	}
	if biasLat.Mean >= pureLat.Mean {
		t.Fatalf("bias did not cut latency: %v vs %v rounds", biasLat.Mean, pureLat.Mean)
	}
}

func TestBiasCutsTrafficWithSpreadTermination(t *testing.T) {
	// Bias alone does not cut bandwidth — the broadcast still diffuses
	// for the full TTL. Combined with spread termination on delivery
	// (§3.2.2's early stop), reaching the destination sooner directly
	// translates into fewer transmissions.
	_, pureTx, _ := run(t, 0, 0, 20, true)
	_, biasTx, _ := run(t, 0.8, 0, 20, true)
	if biasTx.Mean >= pureTx.Mean {
		t.Fatalf("bias+stop did not cut traffic: %v vs %v transmissions", biasTx.Mean, pureTx.Mean)
	}
}

func TestBiasKeepsCrashTolerance(t *testing.T) {
	// Unlike XY routing, a strongly biased gossip still finds its way
	// around crashed tiles because sideways probability stays nonzero.
	_, _, ok := run(t, 0.8, 4, 30, false)
	if ok < 0.8 {
		t.Fatalf("biased gossip completion with 4 dead tiles = %v", ok)
	}
}
