package experiments

import (
	"fmt"

	"repro/internal/apps/prodcons"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// producerConsumerTrace runs the §3.2.1 example and reports the spread:
// the Producer on (paper) tile 6 = 0-based tile 5 gossips one message to
// the Consumer on tile 12 = 0-based tile 11. The awareness trajectory
// comes from the metrics recorder's AwareTiles series (flushed by the
// engine's OnRoundEnd hook every round) rather than a hand-rolled tally.
// The run is fault-free, so only the payload's length (it prices
// energy) can reach an output, never its contents.
func producerConsumerTrace(seed uint64, p float64) (Fig33Result, error) {
	grid := topology.NewGrid(4, 4)
	sc := sim.Scenario{
		Config: core.Config{Topo: grid, P: p, TTL: core.DefaultTTL, MaxRounds: 100, Seed: seed},
		Src:    5, Dst: 11, Kind: prodcons.KindData, Payload: 5,
		Rounds: 100, StopAtDelivery: true,
	}
	t, err := sc.Run(sim.Hooks{Record: true})
	if err != nil {
		return Fig33Result{}, err
	}
	if t.Delivered < 0 {
		return Fig33Result{}, fmt.Errorf("experiments: producer-consumer run did not deliver")
	}
	aware := t.Rec.Series().Int(metrics.AwareTiles)
	perRound := make([]int, t.Net.Round())
	for r := 1; r <= t.Net.Round(); r++ {
		perRound[r-1] = int(aware[r])
	}
	return Fig33Result{
		DeliveryRound:     t.Delivered,
		AwarePerRound:     perRound,
		ManhattanDistance: grid.Manhattan(5, 11),
	}, nil
}

// Fig44Row is one (application, p, dead tiles) cell of Fig. 4-4.
type Fig44Row struct {
	App       CaseApp
	P         float64
	DeadTiles int
	Result    Repeated
}

// Fig44 reproduces Fig. 4-4: latency (rounds) and energy (J per useful
// bit) of the two case studies versus the number of crashed tiles, for
// the four forwarding probabilities. Every cell runs mc.Replicas
// replicas under the same per-replica seeds (common random numbers), so
// cells differ only in their configuration.
func Fig44(app CaseApp, deadTiles []int, mc sim.Config) ([]Fig44Row, error) {
	var rows []Fig44Row
	for _, p := range PSweep {
		for _, dead := range deadTiles {
			// TTL 24 (double the grid default) so that even the sparse
			// p = 0.25 spread reliably crosses the mesh, as in the
			// thesis' sweeps.
			cfg := core.Config{
				P: p, TTL: 24, MaxRounds: 300,
				Fault: fault.Model{DeadTiles: dead},
			}
			rep, err := repeatCase(app, cfg, mc)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig44Row{App: app, P: p, DeadTiles: dead, Result: rep})
		}
	}
	return rows, nil
}

// Fig45Cell is one point of the Fig. 4-5 latency surface.
type Fig45Cell struct {
	DeadTiles int
	PUpset    float64
	Result    Repeated
}

// Fig45 reproduces Fig. 4-5: the impact of defective tiles × data upsets
// on Master–Slave latency at p = 0.5.
func Fig45(deadTiles []int, upsets []float64, mc sim.Config) ([]Fig45Cell, error) {
	var cells []Fig45Cell
	for _, dead := range deadTiles {
		for _, pu := range upsets {
			// High upset rates slow the spread to ~0.1 hops/port/round;
			// the message lifetime must cover the longer journey (the
			// thesis' runs extend past 100 rounds at 90 % upsets).
			cfg := core.Config{
				P: 0.5, TTL: 64, MaxRounds: 400,
				Fault: fault.Model{DeadTiles: dead, PUpset: pu},
			}
			rep, err := repeatCase(MasterSlave, cfg, mc)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Fig45Cell{DeadTiles: dead, PUpset: pu, Result: rep})
		}
	}
	return cells, nil
}

// Fig46Run is one NoC run of the bus comparison.
type Fig46Run struct {
	LatencySeconds  float64
	EnergyPerBitJ   float64
	EnergyDelayJsPB float64
}

// Fig46Result is the §4.1.4 comparison table.
type Fig46Result struct {
	// Runs are the individual NoC runs (the thesis shows three).
	Runs []Fig46Run
	// NoCAvg averages the runs.
	NoCAvg Fig46Run
	// Bus is the shared-bus implementation of the same workload.
	Bus Fig46Run
	// LatencyRatio is bus latency / NoC latency (the thesis reports ≈11).
	LatencyRatio float64
	// EnergyRatio is NoC energy / bus energy (the thesis reports ≈1.05).
	EnergyRatio float64
}

// Fig46 reproduces Fig. 4-6: the Master–Slave workload on a
// stochastically-communicating 5×5 NoC versus the same DSP modules on a
// 0.25 µm shared bus. The NoC runs with spread termination on delivery
// (§3.2.2's early-stop optimization), as a pure TTL-bounded spread pays
// for broadcast redundancy the bus comparison does not need.
func Fig46(mc sim.Config) (*Fig46Result, error) {
	nocRuns, err := sim.Run(mc, func(r int, seed uint64) (Fig46Run, error) {
		cfg := core.Config{
			P: 0.5, TTL: 8, MaxRounds: 200,
			StopSpreadOnDelivery: true,
			Seed:                 seed,
		}
		net, app, err := buildMasterSlave(cfg, msCenter)
		if err != nil {
			return Fig46Run{}, err
		}
		res := net.Run()
		if !res.Completed {
			return Fig46Run{}, fmt.Errorf("experiments: fig 4-6 NoC run %d incomplete", r)
		}
		if _, err := app.Master.Pi(); err != nil {
			return Fig46Run{}, err
		}
		c := res.Counters
		// Eq. 2: T_R = packets-per-link-round × S / f over the 40 links
		// of a 5×5 mesh.
		links := len(msGrid.Links())
		perLinkRound := float64(c.Energy.Transmissions) / float64(res.Rounds*links)
		tr := energy.RoundDuration(perLinkRound, c.Energy.AvgPacketBits(), energy.NoCLink025)
		lat := energy.LatencySeconds(float64(res.Rounds), tr)
		en := c.Energy.EnergyPerBitJ(energy.NoCLink025, c.DeliveredPayloadBits)
		return Fig46Run{
			LatencySeconds:  lat,
			EnergyPerBitJ:   en,
			EnergyDelayJsPB: energy.EnergyDelayProduct(en, lat),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	out := &Fig46Result{Runs: nocRuns}
	var latSum, enSum float64
	for _, run := range nocRuns {
		latSum += run.LatencySeconds
		enSum += run.EnergyPerBitJ
	}
	out.NoCAvg = Fig46Run{
		LatencySeconds: latSum / float64(len(nocRuns)),
		EnergyPerBitJ:  enSum / float64(len(nocRuns)),
	}
	out.NoCAvg.EnergyDelayJsPB = energy.EnergyDelayProduct(out.NoCAvg.EnergyPerBitJ, out.NoCAvg.LatencySeconds)

	// Bus workload: the same logical messages — 16 assignments + 16
	// replies — on one shared bus; message size matches the NoC's.
	sizeBits := 8 * packet.EncodedLen(14)
	var msgs []bus.Message
	for i := 0; i < 16; i++ {
		msgs = append(msgs, bus.Message{Src: 0, Bits: sizeBits}) // master sends
	}
	for i := 0; i < 16; i++ {
		msgs = append(msgs, bus.Message{Src: 1 + i%8, Bits: sizeBits, Ready: 0})
	}
	busRes, err := bus.Simulate(msgs, energy.Bus025)
	if err != nil {
		return nil, err
	}
	out.Bus = Fig46Run{
		LatencySeconds: busRes.Makespan,
		EnergyPerBitJ:  energy.Bus025.JoulePerBit,
	}
	out.Bus.EnergyDelayJsPB = energy.EnergyDelayProduct(out.Bus.EnergyPerBitJ, out.Bus.LatencySeconds)

	out.LatencyRatio = out.Bus.LatencySeconds / out.NoCAvg.LatencySeconds
	out.EnergyRatio = out.NoCAvg.EnergyPerBitJ / out.Bus.EnergyPerBitJ
	return out, nil
}
