package experiments

// Extension studies beyond the thesis' figures: the deterministic-routing
// strawman quantified, the mapping sensitivity §4.1.3 remarks on, and the
// grid-topology spreading curve backing the thesis' claim that gossip
// "can be disseminated explosively fast" on meshes too.

import (
	"cmp"
	"fmt"

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

// robustnessRounds is the robustness study's round budget.
const robustnessRounds = 120

// robustnessCell is one (protocol, dead tiles) cell of RobustnessStudy:
// one message crossing a 6×6 grid corner to corner, stopping at its
// delivery. The returned function runs one replica of it under seed with
// h; for XY routing it adds the Start hook that installs the routers,
// and Install's error is the replica's.
func robustnessCell(proto Protocol, dead int) (func(seed uint64, h sim.Hooks) (*sim.Trial, error), error) {
	g := topology.NewGrid(6, 6)
	src, dst := g.ID(0, 0), g.ID(5, 5)
	s := sim.Scenario{
		Config: core.Config{
			Topo: g, P: 0.75, TTL: 24, MaxRounds: robustnessRounds,
			Fault: fault.Model{DeadTiles: dead, Protect: []packet.TileID{src, dst}},
		},
		Src: src, Dst: dst, Kind: 1, Payload: 1,
		Rounds: robustnessRounds, StopAtDelivery: true,
	}
	switch proto {
	case ProtoDirected:
		bias, err := directed.GridBias(g, 0.7)
		if err != nil {
			return nil, err
		}
		s.Config.PortWeight = bias
	case ProtoXY:
		s.Config.P = 0 // routers bypass the gossip probability
	}
	return func(seed uint64, h sim.Hooks) (*sim.Trial, error) {
		s := s
		s.Config.Seed = seed
		var installErr error
		if proto == ProtoXY {
			h.Start = func(t *sim.Trial) { installErr = xyrouting.Install(t.Net) }
		}
		t, err := s.Run(h)
		return t, cmp.Or(err, installErr)
	}, nil
}

// RobustnessStudy quantifies the thesis' introduction: static routing
// "would fail if even a single tile on the path is faulty", while
// stochastic communication keeps delivering. One message crosses a 6×6
// grid corner-to-corner under an increasing number of crashed tiles.
func RobustnessStudy(deadTiles []int, mc sim.Config) ([]RobustnessRow, error) {
	var rows []RobustnessRow
	for _, proto := range []Protocol{ProtoGossip, ProtoDirected, ProtoXY} {
		for _, dead := range deadTiles {
			run, err := robustnessCell(proto, dead)
			if err != nil {
				return nil, err
			}
			results, err := sim.Run(mc, func(_ int, seed uint64) (delivery, error) {
				t, err := run(seed, sim.Hooks{})
				if err != nil {
					return delivery{}, err
				}
				return delivery{got: t.Delivered >= 0, round: t.Delivered}, nil
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
	strategies := []struct {
		name   string
		master packet.TileID
	}{
		{"center (comm-aware)", msGrid.ID(2, 2)},
		{"corner (naive)", msGrid.ID(0, 0)},
	}
	// The communication graph: master <-> 8 slaves, uniform volume.
	tg := &mapping.Graph{Tasks: []mapping.Task{{Name: "master", Replicas: 1}}}
	for k := 0; k < 8; k++ {
		tg.Tasks = append(tg.Tasks, mapping.Task{Name: fmt.Sprintf("s%d", k), Replicas: 2})
		tg.Edges = append(tg.Edges, mapping.Edge{From: 0, To: k + 1, Volume: 1})
	}

	var rows []MappingRow
	for _, st := range strategies {
		placement := &mapping.Placement{
			TilesOf: append([][]packet.TileID{{st.master}}, msSlaves(st.master)...),
		}
		results, err := sim.Run(mc, func(_ int, seed uint64) (delivery, error) {
			net, _, err := buildMasterSlave(core.Config{
				P: 0.5, TTL: core.DefaultTTL, MaxRounds: 200, Seed: seed,
			}, st.master)
			if err != nil {
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
			CommCost: mapping.CommCost(tg, msGrid, placement),
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
	s := sim.Scenario{
		Config: core.Config{Topo: g, P: p, TTL: uint8(min(255, maxRounds)), MaxRounds: maxRounds},
		Src:    g.ID(side/2, side/2), Dst: packet.Broadcast, Rounds: maxRounds,
	}
	// The per-round awareness curve is the recorder's AwareTiles series;
	// index 0 is the injection, round r lands at index r.
	curves, err := sim.Run(mc, func(_ int, seed uint64) ([]int64, error) {
		s := s
		s.Config.Seed = seed
		t, err := s.Run(sim.Hooks{Record: true})
		if err != nil {
			return nil, err
		}
		return t.Rec.Series().Int(metrics.AwareTiles), nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]GridSpreadRow, maxRounds)
	for i := range rows {
		sum := 0.0
		for _, aware := range curves {
			// A run that drained early keeps its last count.
			sum += float64(aware[min(i+1, len(aware)-1)])
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
	g := topology.NewGrid(side, side)
	center := g.ID(side/2, side/2)
	s := sim.Scenario{
		Config: core.Config{
			Topo: g, P: 0.75, TTL: 30, MaxRounds: 80,
			Fault: fault.Model{PTileCrash: pcrash, Protect: []packet.TileID{center}},
		},
		Src: center, Dst: packet.Broadcast, Rounds: 80,
	}
	coverages, err := sim.Run(mc, func(_ int, seed uint64) (float64, error) {
		s := s
		s.Config.Seed = seed
		t, err := s.Run(sim.Hooks{})
		if err != nil {
			return 0, err
		}
		alive := 0
		for i := 0; i < g.Tiles(); i++ {
			if t.Net.Injector().TileAlive(packet.TileID(i)) {
				alive++
			}
		}
		return float64(t.Net.Aware(t.Msg)) / float64(alive), nil
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
		s := sim.Scenario{
			Config: core.Config{Topo: g, P: 0.5, TTL: ttl, MaxRounds: 3 * int(ttl)},
			Src:    src, Dst: dst, Kind: 1, Payload: 1, Rounds: 3 * int(ttl),
		}
		results, err := sim.Run(mc, func(_ int, seed uint64) (ttlSample, error) {
			s := s
			s.Config.Seed = seed
			// The run goes on past the delivery, to quiescence or the
			// budget, so that every transmission is billed; the delivery
			// round is watched here.
			var d delivery
			t, err := s.Run(sim.Hooks{OnRound: func(t *sim.Trial) error {
				if !d.got && t.Net.AwareAt(t.Msg, dst) {
					d = delivery{got: true, round: t.Net.Round()}
				}
				return nil
			}})
			if err != nil {
				return ttlSample{}, err
			}
			return ttlSample{delivery: d, tx: t.Net.Counters().Energy.Transmissions}, nil
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
