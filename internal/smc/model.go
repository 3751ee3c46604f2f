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
// simulates one network under the given seed up to the property's horizon
// (or to quiescence / Scenario.Rounds for unbounded properties) and
// evaluates prop on the recorded series. The returned function is safe
// for concurrent calls: each call takes a network of its own from a pool
// the function keeps, Resets it (sim.Hooks.Net) and hands it back, so a
// worker reuses one engine across its replicas instead of building one
// per replica. Every call records into its own recorder.
func (m Model) Replica(prop Property) Replica {
	horizon := prop.Horizon()
	var nets sync.Pool
	return func(_ int, seed uint64) (bool, error) {
		net, _ := nets.Get().(*core.Network)
		t, err := m.trial(seed, horizon, net)
		if err != nil {
			return false, err
		}
		ok := prop.Eval(t.Rec.Series())
		nets.Put(t.Net)
		return ok, nil
	}
}

// Run simulates a single trajectory under seed up to horizon rounds
// (NoHorizon: to quiescence or Scenario.Rounds) and returns its
// recorded series — the raw material Property.Eval consumes. Round 0 of
// every series is the pre-run state; the engine's rounds land at
// indices 1… .
func (m Model) Run(seed uint64, horizon int) (*metrics.TimeSeries, error) {
	t, err := m.trial(seed, horizon, nil)
	if err != nil {
		return nil, err
	}
	return t.Rec.Series(), nil
}

// trial runs the recorded trajectory under seed, on net Reset when it is
// set.
func (m Model) trial(seed uint64, horizon int, net *core.Network) (*sim.Trial, error) {
	t, err := m.scenario(seed, horizon).Run(sim.Hooks{Record: true, Net: net})
	if err != nil {
		return nil, fmt.Errorf("smc: model: %w", err)
	}
	return t, nil
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
