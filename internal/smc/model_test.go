package smc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
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
// building a fresh network per replica and evaluating its full-horizon
// series reports, sequentially and with workers sharing the pool. Two of
// the properties are decided mid-spread, so the pooled networks are
// Reset from runs stopped there.
func TestModelReplicaReuseMatchesFresh(t *testing.T) {
	g := topology.NewGrid(8, 8)
	model := BroadcastModel(core.Config{
		Topo: g, P: 0.5, TTL: 16, Fault: fault.Model{PUpset: 0.05, SigmaSync: 0.3},
	}, g.ID(4, 4), energy.NoCLink025)
	for _, prop := range []Property{
		AwareFraction(0.9).Within(10),
		AwareFraction(0.5).Within(10),
		TransmissionsBelow(300),
	} {
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
				t.Fatalf("%s, Workers=%d: pooled replicas report %+v, fresh networks %+v", prop, workers, got, want)
			}
		}
	}
	for _, prop := range []Property{AwareFraction(0.5).Within(10), TransmissionsBelow(300)} {
		if tr, _, err := model.decide(prop, 2003, nil); err != nil || tr.Status != sim.LoopCanceled {
			t.Fatalf("%s: replica not stopped mid-spread (status %v, err %v)", prop, tr.Status, err)
		}
	}
}

// decisionModels are the systems TestDecisionMatchesEval runs: a 6×6
// grid broadcasting and sending a unicast from a corner, energy
// accounted, with and without upsets.
func decisionModels() map[string]Model {
	g := topology.NewGrid(6, 6)
	models := map[string]Model{}
	for _, upset := range []float64{0, 0.3} {
		cfg := core.Config{Topo: g, P: 0.5, TTL: 12, Fault: fault.Model{PUpset: upset}}
		bcast := BroadcastModel(cfg, g.ID(1, 1), energy.NoCLink025)
		uni := bcast
		uni.Scenario.Dst = g.ID(5, 4)
		models[fmt.Sprintf("broadcast upset=%g", upset)] = bcast
		models[fmt.Sprintf("unicast upset=%g", upset)] = uni
	}
	return models
}

// seedProps are properties cut to one recorded trajectory, so that the
// run reaches or crosses each bound exactly: an aware fraction and a
// delivery count reached at their bound's very round (true) and bounded
// one round sooner (false); transmission and energy budgets equal to the
// sums after a mid-run round, which the run exceeds later (false); and
// each budget or-ed with a term decided false at round 0 (false).
// missed, if not nil, is the one decided false exactly at its bound,
// and-ed with a term no round decides, so only that bound can stop the
// run.
func seedProps(ts *metrics.TimeSeries) (props []Property, missed Property, bound int) {
	unbounded := TransmissionsBelow(math.MaxInt64)
	mid := ts.Rounds / 2
	frac := ts.Float(metrics.AwareFraction)
	for r := 0; r <= ts.Rounds; r++ {
		if frac[r] >= frac[mid] {
			reached := AwareFraction(frac[mid]).Within(r)
			props = append(props, reached, Not(reached))
			if r > 0 {
				missed, bound = And(AwareFraction(frac[mid]).Within(r-1), unbounded), r-1
				props = append(props, missed)
			}
			break
		}
	}
	var delivered int64
	for r, d := range ts.Int(metrics.Deliveries) {
		if delivered += d; d > 0 {
			props = append(props, Deliveries(delivered).By(r), Deliveries(delivered).By(r-1))
			break
		}
	}
	var sent int64
	var joules float64
	for r := 0; r <= mid; r++ {
		sent += ts.Int(metrics.Transmissions)[r]
		joules += ts.Float(metrics.EnergyJ)[r]
	}
	never := AwareFraction(1).Within(0)
	for _, budget := range []Property{TransmissionsBelow(sent), TransmissionsBelow(sent - 1), EnergyBelow(joules)} {
		props = append(props, budget, Or(budget, never), Or(never, budget), And(budget, Not(never)))
	}
	return props, missed, bound
}

// TestDecisionMatchesEval is the referee of the early stop: on every
// model and 50 seeds, the outcome of a replica stopped at its first
// decided round barrier equals Eval on the trajectory's whole series, for
// every canonical property form, nested combinators, properties decided
// at round 0, and the seedProps cut to each trajectory. A property
// decided false exactly at its bound must stop there.
func TestDecisionMatchesEval(t *testing.T) {
	var fixed []Property
	for _, s := range append(canonicalForms,
		"not ((aware(0.5) within 4 or not delivered(2) by 6) and (transmissions <= 400 or not aware(0.9)))",
		"(not (delivered by 3) or energy <= 1e-09) and not (aware(0.8) within 9 and not transmissions <= 250)",
		"not aware(0)",
		"aware(0) or transmissions <= 10",
		"not (aware(0) and aware(1) within 0)",
	) {
		p, err := Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		fixed = append(fixed, p)
	}
	fixed = append(fixed, Deliveries(7).By(3), Or(Delivered().By(8), Not(AwareFraction(0.99))))
	for name, model := range decisionModels() {
		var net *core.Network
		stopped := 0
		for seed := uint64(0); seed < 50; seed++ {
			ts, err := model.Run(seed, NoHorizon)
			if err != nil {
				t.Fatal(err)
			}
			props, missed, bound := seedProps(ts)
			for _, prop := range append(props, fixed...) {
				tr, got, err := model.decide(prop, seed, net)
				if err != nil {
					t.Fatal(err)
				}
				net = tr.Net
				if want := prop.Eval(ts); got != want {
					t.Errorf("%s seed %d: %q decided %v at round %d, Eval on the whole series %v",
						name, seed, prop, got, tr.Net.Round(), want)
				}
				if tr.Status == sim.LoopCanceled {
					stopped++
				}
			}
			if missed != nil {
				if tr, _, _ := model.decide(missed, seed, net); tr.Status != sim.LoopCanceled || tr.Net.Round() != bound {
					t.Errorf("%s seed %d: %q stopped at round %d (%v), want round %d", name, seed, missed, tr.Net.Round(), tr.Status, bound)
				}
			}
		}
		if stopped == 0 {
			t.Errorf("%s: no replica stopped before its horizon", name)
		}
	}
}

// smcVerdictModel is the 16×16 model the smc_verdict benchmark workload
// checks "aware(0.95) within 48" on.
func smcVerdictModel() Model {
	g := topology.NewGrid(16, 16)
	return BroadcastModel(core.Config{Topo: g, P: 0.5, TTL: 64}, g.ID(8, 8), energy.NoCLink025)
}

// TestReplicaStopsWhenDecided pins the early stop on the smc_verdict
// model: every seed reaches 95 % awareness around round 17, far inside
// the 48-round bound, and each replica stops by round 25 — a replica
// that ran on to its horizon would not.
func TestReplicaStopsWhenDecided(t *testing.T) {
	model := smcVerdictModel()
	prop := AwareFraction(0.95).Within(48)
	var net *core.Network
	for seed := uint64(0); seed < 10; seed++ {
		tr, holds, err := model.decide(prop, seed, net)
		if err != nil {
			t.Fatal(err)
		}
		net = tr.Net
		if !holds || tr.Status != sim.LoopCanceled || tr.Net.Round() > 25 {
			t.Errorf("seed %d: outcome %v, stopped at round %d (%v), want true by round 25", seed, holds, tr.Net.Round(), tr.Status)
		}
	}
}

// TestReplicaAllocs pins the allocations of a warm replica — one whose
// network is Reset, as Model.Replica's pool hands them out — on the
// smc_verdict model: at most 30 (the full-horizon replica with its
// series copy made 30).
func TestReplicaAllocs(t *testing.T) {
	model := smcVerdictModel()
	prop := AwareFraction(0.95).Within(48)
	tr, _, err := model.decide(prop, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, seed := tr.Net, uint64(1)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		if _, _, err := model.decide(prop, seed, net); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a warm replica makes %v allocations", allocs)
	if allocs > 30 {
		t.Errorf("a warm replica makes %v allocations, want at most 30", allocs)
	}
}

// BenchmarkCheck16x16 times one verdict in the smc_verdict workload's
// shape — 16×16 centre broadcast, "aware(0.95) within 48", θ = 0.9,
// δ = 0.02, one worker — with replicas on one reused network, as
// Model.Replica's pool gives a single worker. It reports the rounds a
// replica simulates.
func BenchmarkCheck16x16(b *testing.B) {
	model := smcVerdictModel()
	prop := AwareFraction(0.95).Within(48)
	var net *core.Network
	var rounds, replicas int
	replica := func(_ int, seed uint64) (bool, error) {
		tr, holds, err := model.decide(prop, seed, net)
		if err != nil {
			return false, err
		}
		net = tr.Net
		rounds += tr.Net.Round()
		replicas++
		return holds, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Check(prop, replica, CheckConfig{Theta: 0.9, Delta: 0.02, Workers: 1, Seed: uint64(i)})
		if err != nil || rep.Verdict == Undecided {
			b.Fatalf("%v (%v)", rep, err)
		}
	}
	b.ReportMetric(float64(rounds)/float64(replicas), "rounds/replica")
}
