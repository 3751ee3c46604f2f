package smc

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Model is the simulated system a property is checked against: a
// sim.Scenario run once per replica, its trajectory recorded round by
// round. Model.Replica turns it into the Replica function Check and the
// CLI drive.
type Model struct {
	// Scenario is the experiment: Config.Seed is ignored (each replica
	// has its own), hooks must be nil (replicas would race), and Rounds
	// bounds the properties without a horizon. Broadcast feeds aware(f),
	// a unicast Dst the delivered predicates; models inject kind 0 and run
	// past the delivery, so the properties see the whole trajectory.
	Scenario sim.Scenario
}

// BroadcastModel is the common case: a 16-byte broadcast injected at
// source, bounded by cfg.MaxRounds (the engine's 10 000 when zero).
func BroadcastModel(cfg core.Config, source packet.TileID, tech energy.Technology) Model {
	rounds := cfg.MaxRounds
	if rounds <= 0 {
		rounds = 10000 // the engine's own MaxRounds default
	}
	return Model{sim.Scenario{Config: cfg, Src: source, Dst: packet.Broadcast, Payload: 16, Rounds: rounds, Tech: tech}}
}

// Replica builds the per-trajectory evaluator for prop: each call
// simulates one network under the given seed and returns prop's outcome
// on the recorded series. The run stops at the first round barrier where
// prop is decided (see decide), at the latest at the property's horizon
// (or at quiescence / Scenario.Rounds for unbounded properties). The
// returned function is safe for concurrent calls: each call takes a
// network of its own from a pool the function keeps, Resets it
// (sim.Hooks.Net) and hands it back, so a worker reuses one engine
// across its replicas instead of building one per replica. Every call
// records into its own recorder.
func (m Model) Replica(prop Property) Replica {
	var nets sync.Pool
	return func(_ int, seed uint64) (bool, error) {
		net, _ := nets.Get().(*core.Network)
		t, holds, err := m.decide(prop, seed, net)
		if err != nil {
			return false, err
		}
		nets.Put(t.Net)
		return holds, nil
	}
}

// decide runs one replica under seed, on net Reset when it is set, and
// returns it with prop's outcome. At every round barrier it reads the
// rounds the recorder has added into prop's monitor, and it stops the
// run (sim.OpCancel) at the first barrier where prop is decided: no
// later round could change the outcome, so it is the one Eval would
// give on the whole series. A run that ends undecided — at the horizon,
// the round budget or quiescence — reads its last rounds after the
// loop, which is Eval on its series.
func (m Model) decide(prop Property, seed uint64, net *core.Network) (*sim.Trial, bool, error) {
	mon := &monitor{prop: prop}
	var rec *metrics.Recorder
	t, err := m.scenario(seed, prop.Horizon()).Run(sim.Hooks{
		Record: true, Net: net,
		Start: func(t *sim.Trial) { rec = t.Rec },
		Barrier: func(*core.Network) sim.BarrierOp {
			v := rec.View()
			if mon.follow(&v); mon.decided {
				return sim.OpCancel
			}
			return sim.OpContinue
		},
	})
	if err != nil {
		return nil, false, fmt.Errorf("smc: model: %w", err)
	}
	v := t.Rec.View()
	mon.follow(&v)
	return t, mon.holds, nil
}

// Run simulates a single trajectory under seed up to horizon rounds
// (NoHorizon: to quiescence or Scenario.Rounds) and returns its
// recorded series — the raw material Property.Eval consumes. Round 0 of
// every series is the pre-run state; the engine's rounds land at
// indices 1… .
func (m Model) Run(seed uint64, horizon int) (*metrics.TimeSeries, error) {
	t, err := m.scenario(seed, horizon).Run(sim.Hooks{Record: true})
	if err != nil {
		return nil, fmt.Errorf("smc: model: %w", err)
	}
	return t.Rec.Series(), nil
}

// scenario is the model's experiment under seed, bounded by horizon.
func (m Model) scenario(seed uint64, horizon int) sim.Scenario {
	s := m.Scenario
	s.Config.Seed = seed
	if horizon != NoHorizon && horizon < s.Rounds {
		s.Rounds = horizon
	}
	return s
}
