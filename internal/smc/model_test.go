package smc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// TestModelRunCrashedSourceStopsAtRoundZero pins the model's behaviour
// when its source tile is dead: the model protects no tile, Inject at a
// dead tile creates no copy, and the network is quiescent before the
// first round — so the run stops there, and its series is round 0 alone.
func TestModelRunCrashedSourceStopsAtRoundZero(t *testing.T) {
	g := topology.NewGrid(4, 4)
	model := BroadcastModel(core.Config{
		Topo: g, P: 0.5, TTL: 16,
		Fault: fault.Model{PTileCrash: 1}, // every tile dead, the source included
	}, g.ID(1, 1), energy.NoCLink025)
	for _, horizon := range []int{NoHorizon, 8} {
		ts, err := model.Run(3, horizon)
		if err != nil {
			t.Fatalf("horizon %d: %v", horizon, err)
		}
		if ts.Rounds != 0 {
			t.Errorf("horizon %d: series covers %d rounds, want 0 (quiescent at round 0)", horizon, ts.Rounds)
		}
		if got := ts.Int(metrics.AwareTiles)[0]; got != 0 {
			t.Errorf("horizon %d: %d tiles aware at round 0, want 0", horizon, got)
		}
	}
	if ok, err := model.Replica(AwareFraction(0.01).Within(8))(0, 3); err != nil || ok {
		t.Fatalf("replica on a dead source = %v (err %v), want false", ok, err)
	}
}

// TestModelRunsPastDelivery pins that a unicast model is not stopped by
// its delivery: the trajectory runs on to quiescence (or the horizon), so
// the properties see the whole spread, not just its first arrival.
func TestModelRunsPastDelivery(t *testing.T) {
	g := topology.NewGrid(4, 4)
	model := BroadcastModel(core.Config{Topo: g, P: 1, TTL: 8}, 0, energy.NoCLink025)
	model.Scenario.Dst = 1
	ts, err := model.Run(1, NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	// Flooding delivers at round 1 (one hop); the copies live on until
	// their TTL runs out.
	if d := ts.Int(metrics.Deliveries); len(d) < 2 || d[1] == 0 {
		t.Fatalf("no delivery in round 1: %v", d)
	}
	if ts.Rounds <= 1 {
		t.Fatalf("series stops at round %d, want the run to continue past the delivery", ts.Rounds)
	}
}

// TestModelReplicaReuseMatchesFresh pins the engine pool of Model.Replica:
// a check whose replicas reuse pooled networks reports exactly what one
// building a fresh network per replica reports, sequentially and with
// workers sharing the pool.
func TestModelReplicaReuseMatchesFresh(t *testing.T) {
	g := topology.NewGrid(8, 8)
	model := BroadcastModel(core.Config{
		Topo: g, P: 0.5, TTL: 16, Fault: fault.Model{PUpset: 0.05, SigmaSync: 0.3},
	}, g.ID(4, 4), energy.NoCLink025)
	prop := AwareFraction(0.9).Within(10)
	fresh := func(_ int, seed uint64) (bool, error) {
		ts, err := model.Run(seed, prop.Horizon())
		if err != nil {
			return false, err
		}
		return prop.Eval(ts), nil
	}
	cfg := CheckConfig{Theta: 0.5, Delta: 0.05, Seed: 2003, Workers: 1}
	want, err := Check(prop, fresh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		got, err := Check(prop, model.Replica(prop), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Workers=%d: pooled replicas report %+v, fresh networks %+v", workers, got, want)
		}
	}
}
