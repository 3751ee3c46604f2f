package experiments

// Extension studies beyond the thesis' figures: the deterministic-routing
// strawman quantified, the mapping sensitivity §4.1.3 remarks on, and the
// grid-topology spreading curve backing the thesis' claim that gossip
// "can be disseminated explosively fast" on meshes too.

import (
	"fmt"

	"repro/internal/apps/pisum"
	"repro/internal/core"
	"repro/internal/directed"
	"repro/internal/fault"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/xyrouting"
)

// setupPiAt wires the standard π workload with the master at a chosen
// tile, for placement studies.
func setupPiAt(net *core.Network, master packet.TileID, slaves [][]packet.TileID) (*pisum.App, error) {
	return pisum.Setup(net, master, slaves, 8000)
}

// Protocol names a communication scheme in the robustness study.
type Protocol string

// The compared protocols.
const (
	ProtoGossip   Protocol = "gossip-p0.75"
	ProtoDirected Protocol = "directed-gossip"
	ProtoXY       Protocol = "xy-routing"
)

// RobustnessRow is one (protocol, dead tiles) cell.
type RobustnessRow struct {
	Protocol     Protocol
	DeadTiles    int
	DeliveryRate float64
	Latency      stats.Summary
}

type studySink struct {
	got      bool
	gotRound int
}

func (s *studySink) Init(*core.Ctx)  {}
func (s *studySink) Round(*core.Ctx) {}
func (s *studySink) Done() bool      { return s.got }
func (s *studySink) Receive(ctx *core.Ctx, _ *packet.Packet) {
	if !s.got {
		s.got = true
		s.gotRound = ctx.Round()
	}
}

// RobustnessStudy quantifies the thesis' introduction: static routing
// "would fail if even a single tile on the path is faulty", while
// stochastic communication keeps delivering. One message crosses a 6×6
// grid corner-to-corner under an increasing number of crashed tiles.
func RobustnessStudy(deadTiles []int, mc sim.Config) ([]RobustnessRow, error) {
	g := topology.NewGrid(6, 6)
	src, dst := g.ID(0, 0), g.ID(5, 5)
	bias, err := directed.GridBias(g, 0.7)
	if err != nil {
		return nil, err
	}

	var rows []RobustnessRow
	for _, proto := range []Protocol{ProtoGossip, ProtoDirected, ProtoXY} {
		for _, dead := range deadTiles {
			proto := proto
			results, err := sim.Run(mc, func(_ int, seed uint64) (delivery, error) {
				cfg := core.Config{
					Topo: g, TTL: 24, MaxRounds: 120,
					Seed:  seed,
					Fault: fault.Model{DeadTiles: dead, Protect: []packet.TileID{src, dst}},
				}
				switch proto {
				case ProtoGossip:
					cfg.P = 0.75
				case ProtoDirected:
					cfg.P = 0.75
					cfg.PortWeight = bias
				case ProtoXY:
					cfg.P = 0 // routers bypass the gossip probability
				}
				net, err := core.New(cfg)
				if err != nil {
					return delivery{}, err
				}
				if proto == ProtoXY {
					if err := xyrouting.Install(net); err != nil {
						return delivery{}, err
					}
				}
				sink := &studySink{}
				net.Attach(dst, sink)
				net.Inject(src, dst, 1, []byte("r"))
				res := net.RunWhile(func(*core.Network) bool { return !sink.got })
				return delivery{got: res.Completed, round: sink.gotRound}, nil
			})
			if err != nil {
				return nil, err
			}
			var d deliveries
			for _, r := range results {
				d.add(r)
			}
			rows = append(rows, RobustnessRow{
				Protocol: proto, DeadTiles: dead,
				DeliveryRate: d.rate(),
				Latency:      stats.Summarize(&d.latency),
			})
		}
	}
	return rows, nil
}

// MappingRow is one placement strategy's outcome.
type MappingRow struct {
	Strategy string
	Latency  stats.Summary
	CommCost int
}

// MappingStudy backs §4.1.3's remark that "the mapping phase of the
// system-level design has to take into account the communication
// performance": the Master–Slave workload with the master placed at the
// center (communication-aware) vs at a corner (naive), measured at
// p = 0.5.
func MappingStudy(mc sim.Config) ([]MappingRow, error) {
	grid := topology.NewGrid(5, 5)
	strategies := []struct {
		name   string
		master packet.TileID
	}{
		{"center (comm-aware)", grid.ID(2, 2)},
		{"corner (naive)", grid.ID(0, 0)},
	}
	// The communication graph: master <-> 8 slaves, uniform volume.
	tg := &mapping.Graph{Tasks: []mapping.Task{{Name: "master", Replicas: 1}}}
	for k := 0; k < 8; k++ {
		tg.Tasks = append(tg.Tasks, mapping.Task{Name: fmt.Sprintf("s%d", k), Replicas: 2})
		tg.Edges = append(tg.Edges, mapping.Edge{From: 0, To: k + 1, Volume: 1})
	}

	var rows []MappingRow
	for _, st := range strategies {
		st := st
		var slaves [][]packet.TileID
		var free []packet.TileID
		for i := 0; i < grid.Tiles(); i++ {
			if packet.TileID(i) != st.master {
				free = append(free, packet.TileID(i))
			}
		}
		for k := 0; k < 8; k++ {
			slaves = append(slaves, []packet.TileID{free[2*k], free[2*k+1]})
		}
		placement := &mapping.Placement{TilesOf: [][]packet.TileID{{st.master}}}
		placement.TilesOf = append(placement.TilesOf, slaves...)

		results, err := sim.Run(mc, func(_ int, seed uint64) (delivery, error) {
			net, err := core.New(core.Config{
				Topo: grid, P: 0.5, TTL: core.DefaultTTL, MaxRounds: 200,
				Seed: seed,
			})
			if err != nil {
				return delivery{}, err
			}
			if _, err := setupPiAt(net, st.master, slaves); err != nil {
				return delivery{}, err
			}
			res := net.Run()
			return delivery{got: res.Completed, round: res.Rounds}, nil
		})
		if err != nil {
			return nil, err
		}
		var d deliveries
		for _, r := range results {
			d.add(r)
		}
		rows = append(rows, MappingRow{
			Strategy: st.name,
			Latency:  stats.Summarize(&d.latency),
			CommCost: mapping.CommCost(tg, grid, placement),
		})
	}
	return rows, nil
}

// GridSpreadRow is one round of the grid spreading curve.
type GridSpreadRow struct {
	Round     int
	AwareMean float64
}

// GridSpread measures the broadcast dissemination curve on an n×n grid —
// the empirical counterpart of Fig. 3-1 for the mesh topology, which the
// thesis calls "the first evidence that gossip protocols can be applied
// to SoC communication". The curve is sigmoid like the fully connected
// case, just stretched by the mesh diameter.
func GridSpread(side int, p float64, mc sim.Config) ([]GridSpreadRow, error) {
	g := topology.NewGrid(side, side)
	maxRounds := 6 * side
	curves, err := sim.Run(mc, func(_ int, seed uint64) ([]int, error) {
		// The per-round awareness curve comes from the metrics
		// recorder's AwareTiles series (the engine flushes it at every
		// round end), not a hand-rolled Aware() polling loop.
		rec := metrics.NewRecorder(metrics.Config{Rounds: maxRounds})
		cfg := core.Config{
			Topo: g, P: p, TTL: uint8(min(255, maxRounds)), MaxRounds: maxRounds + 1,
			Seed: seed,
		}
		rec.Install(&cfg)
		net, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		center := g.ID(side/2, side/2)
		id, err := net.Inject(center, packet.Broadcast, 0, nil)
		if err != nil {
			return nil, err
		}
		rec.Watch(id)
		for round := 0; round < maxRounds; round++ {
			net.Step()
		}
		aware := rec.Series().Int(metrics.AwareTiles)
		curve := make([]int, maxRounds)
		for round := 0; round < maxRounds; round++ {
			curve[round] = int(aware[round+1])
		}
		return curve, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]GridSpreadRow, maxRounds)
	for i := range rows {
		sum := 0.0
		for _, curve := range curves {
			sum += float64(curve[i])
		}
		rows[i] = GridSpreadRow{Round: i + 1, AwareMean: sum / float64(len(curves))}
	}
	return rows, nil
}

// BimodalRow is one histogram bin of the bimodal-delivery study.
type BimodalRow struct {
	// CoverageLo/Hi bound the bin ([lo, hi) fraction of tiles reached).
	CoverageLo, CoverageHi float64
	// Fraction of runs landing in the bin.
	Fraction float64
}

// BimodalStudy tests the reliability interpretation the thesis cites from
// Birman et al. [4]: gossip multicast delivers "to almost all or almost
// none" of the nodes. In the TTL-bounded on-chip protocol the source
// retransmits every round of the message lifetime, so an epidemic cannot
// die young from transient losses; the mechanism that produces the
// bimodal outcome on-chip is crash partitioning — §4.1.3's "entire
// regions of the NoC are isolated". A broadcast is launched from the
// center of a grid whose tiles crash independently with probability
// pcrash (near the site-percolation threshold); coverage is measured
// over the surviving tiles, and its distribution splits into an
// "almost all" mode (source inside the giant component) and a low mode
// (source trapped in a fragment), with little mass in between.
func BimodalStudy(pcrash float64, mc sim.Config) ([]BimodalRow, error) {
	const side = 6
	const bins = 10
	coverages, err := sim.Run(mc, func(_ int, seed uint64) (float64, error) {
		g := topology.NewGrid(side, side)
		center := g.ID(side/2, side/2)
		net, err := core.New(core.Config{
			Topo: g, P: 0.75, TTL: 30, MaxRounds: 80,
			Seed:  seed,
			Fault: fault.Model{PTileCrash: pcrash, Protect: []packet.TileID{center}},
		})
		if err != nil {
			return 0, err
		}
		alive := 0
		for i := 0; i < g.Tiles(); i++ {
			if net.Injector().TileAlive(packet.TileID(i)) {
				alive++
			}
		}
		id, err := net.Inject(center, packet.Broadcast, 0, nil)
		if err != nil {
			return 0, err
		}
		net.Drain(80)
		return float64(net.Aware(id)) / float64(alive), nil
	})
	if err != nil {
		return nil, err
	}
	counts := make([]int, bins)
	for _, coverage := range coverages {
		bin := int(coverage * bins)
		if bin >= bins {
			bin = bins - 1
		}
		counts[bin]++
	}
	rows := make([]BimodalRow, bins)
	for i := range rows {
		rows[i] = BimodalRow{
			CoverageLo: float64(i) / bins,
			CoverageHi: float64(i+1) / bins,
			Fraction:   float64(counts[i]) / float64(len(coverages)),
		}
	}
	return rows, nil
}

// TTLRow is one TTL setting's outcome.
type TTLRow struct {
	TTL           uint8
	DeliveryRate  float64
	Transmissions stats.Summary
	Latency       stats.Summary
}

// ttlSample is one replica's outcome of the TTL study.
type ttlSample struct {
	delivery
	tx int
}

// TTLStudy quantifies §3.3.1's bandwidth knob: "the total number of
// packets sent in the network ... can be controlled by varying the
// message TTL". One unicast crosses a 5×5 grid at p = 0.5 per TTL
// setting; longer lifetimes buy delivery probability with bandwidth.
func TTLStudy(ttls []uint8, mc sim.Config) ([]TTLRow, error) {
	g := topology.NewGrid(5, 5)
	src, dst := g.ID(0, 0), g.ID(4, 4)
	var rows []TTLRow
	for _, ttl := range ttls {
		ttl := ttl
		results, err := sim.Run(mc, func(_ int, seed uint64) (ttlSample, error) {
			sink := &studySink{}
			net, err := core.New(core.Config{
				Topo: g, P: 0.5, TTL: ttl, MaxRounds: 3 * int(ttl),
				Seed: seed,
			})
			if err != nil {
				return ttlSample{}, err
			}
			net.Attach(dst, sink)
			net.Inject(src, dst, 1, []byte("t"))
			net.Drain(3 * int(ttl))
			return ttlSample{
				delivery: delivery{got: sink.got, round: sink.gotRound},
				tx:       net.Counters().Energy.Transmissions,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		var d deliveries
		var tx stats.Online
		for _, s := range results {
			d.add(s.delivery)
			tx.Add(float64(s.tx))
		}
		rows = append(rows, TTLRow{
			TTL:           ttl,
			DeliveryRate:  d.rate(),
			Transmissions: stats.Summarize(&tx),
			Latency:       stats.Summarize(&d.latency),
		})
	}
	return rows, nil
}
