// Package experiments regenerates every figure of the thesis' evaluation
// (Chapters 3-5). Each FigNN function is deterministic in its seed and
// returns structured rows that cmd/figures renders as the tables recorded
// in EXPERIMENTS.md. The absolute numbers come from our simulator, not
// the authors' Stateflow/PVM testbeds; the *shapes* — who wins, by what
// factor, where the cliffs are — are the reproduction targets.
//
// Replica execution is uniformly routed through the internal/sim Monte
// Carlo runner: every function takes a sim.Config naming the replica
// count, worker pool size and master seed, and its outputs depend only
// on (Replicas, Seed) — never on Workers or goroutine scheduling.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/apps/fft2d"
	"repro/internal/apps/pisum"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// PSweep is the set of forwarding probabilities the thesis compares
// throughout Chapter 4.
var PSweep = []float64{1, 0.75, 0.5, 0.25}

// protect returns base with t appended into a fresh backing array.
// Replicas run concurrently from a shared Config value; appending into a
// caller-owned slice with spare capacity would race.
func protect(base []packet.TileID, t packet.TileID) []packet.TileID {
	out := make([]packet.TileID, 0, len(base)+1)
	out = append(out, base...)
	return append(out, t)
}

// msGrid is the §4.1.1 fabric, a 5×5 grid; the case study puts the
// master at its center, msCenter.
var (
	msGrid   = topology.NewGrid(5, 5)
	msCenter = msGrid.ID(2, 2)
)

// buildMasterSlave wires the §4.1.1 workload on msGrid: the master at
// tile master, 8 slaves each duplicated (msSlaves), quadrature resolution
// 8000.
func buildMasterSlave(cfg core.Config, master packet.TileID) (*core.Network, *pisum.App, error) {
	cfg.Topo = msGrid
	cfg.Fault.Protect = protect(cfg.Fault.Protect, master)
	net, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	app, err := pisum.Setup(net, master, msSlaves(master), 8000)
	if err != nil {
		return nil, nil, err
	}
	return net, app, nil
}

// msSlaves places the 8 duplicated slaves on the first 16 tiles of
// msGrid other than master, in tile order.
func msSlaves(master packet.TileID) [][]packet.TileID {
	var free []packet.TileID
	for i := 0; i < msGrid.Tiles(); i++ {
		if packet.TileID(i) != master {
			free = append(free, packet.TileID(i))
		}
	}
	slaves := make([][]packet.TileID, 8)
	for k := range slaves {
		slaves[k] = []packet.TileID{free[2*k], free[2*k+1]}
	}
	return slaves
}

// buildFFT2 wires the §4.1.2 workload: 4×4 grid, root at (0,0), 4 workers
// each duplicated, 8×8 input.
func buildFFT2(cfg core.Config, seed uint64) (*core.Network, *fft2d.App, error) {
	grid := topology.NewGrid(4, 4)
	cfg.Topo = grid
	root := grid.ID(0, 0)
	cfg.Fault.Protect = protect(cfg.Fault.Protect, root)
	net, err := core.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	workers := [][]packet.TileID{
		{grid.ID(1, 0), grid.ID(3, 0)},
		{grid.ID(2, 1), grid.ID(0, 3)},
		{grid.ID(1, 2), grid.ID(3, 2)},
		{grid.ID(2, 3), grid.ID(0, 1)},
	}
	app, err := fft2d.Setup(net, root, workers, testImage(8, 8, seed))
	if err != nil {
		return nil, nil, err
	}
	return net, app, nil
}

// testImage synthesizes a deterministic complex "image" for FFT2.
func testImage(rows, cols int, seed uint64) [][]complex128 {
	m := make([][]complex128, rows)
	for y := range m {
		m[y] = make([]complex128, cols)
		for x := range m[y] {
			v := math.Sin(0.37*float64(x+1)*float64(int(seed%7)+1)) *
				math.Cos(0.23*float64(y+1))
			m[y][x] = complex(v, 0)
		}
	}
	return m
}

// CaseApp names a Chapter 4 case study.
type CaseApp string

// The two §4.1 case studies.
const (
	MasterSlave CaseApp = "master-slave"
	FFT2        CaseApp = "fft2"
)

// runCase executes one case study replica and reports its metrics. It
// installs no hook: the replica's Counts come from the engine's own
// counts (sim.Measure), so with no OnEvent listener the engine settles
// upsets at the sender.
func runCase(app CaseApp, cfg core.Config, seed uint64) (sim.Metrics, error) {
	cfg.Seed = seed
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 10000
	}
	var (
		net *core.Network
		err error
	)
	switch app {
	case MasterSlave:
		net, _, err = buildMasterSlave(cfg, msCenter)
	case FFT2:
		net, _, err = buildFFT2(cfg, seed)
	default:
		return sim.Metrics{}, fmt.Errorf("experiments: unknown app %q", app)
	}
	if err != nil {
		return sim.Metrics{}, err
	}
	res := net.Run()
	// Latency is the completion round; energy is the workload's total
	// bandwidth cost, so drain the network until every message copy has
	// expired before reading the accounting.
	net.Drain(4 * int(cfg.TTL))
	return sim.Measure(net, res, energy.NoCLink025), nil
}

// Repeated aggregates a case study's per-replica metrics: latency and
// energy over completed replicas, protocol event counters over all.
type Repeated = sim.Aggregate

func repeatCase(app CaseApp, cfg core.Config, mc sim.Config) (Repeated, error) {
	return sim.RunMetrics(mc, func(_ int, seed uint64) (sim.Metrics, error) {
		return runCase(app, cfg, seed)
	})
}

// delivery is one replica's outcome in the unicast and MP3 studies:
// whether it delivered (completed) and in which round.
type delivery struct {
	got   bool
	round int
}

// deliveries reduces replica outcomes in one pass: the delivered share
// and the latency over the delivered replicas.
type deliveries struct {
	n, got  int
	latency stats.Online
}

func (d *deliveries) add(o delivery) {
	d.n++
	if o.got {
		d.got++
		d.latency.Add(float64(o.round))
	}
}

// rate is the delivered share of the replicas added.
func (d *deliveries) rate() float64 { return float64(d.got) / float64(d.n) }
