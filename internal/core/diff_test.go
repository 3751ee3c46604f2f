package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Randomized differential testing: the scenario tables in scenario_test.go
// and snapshot_test.go pin the engine's invariance promises on
// hand-picked configurations; this file hammers the same promises across
// a few hundred machine-generated ones. Every generated Config — random
// topology, protocol knobs, fault mix, routers, forward limits, workload
// — is executed three ways and the complete observable record must
// agree:
//
//	hooked  ==  hook-free  ==  snapshot-resumed
//
// The generator is seeded (diffMasterSeed) and splits one stream per
// case, so every case is reproducible from its index alone: a failure
// report names the case number, and re-running the test replays it.

// diffMasterSeed roots the config generator. Changing it trades the
// whole generated population for a fresh one — fine, but do it on
// purpose, not accidentally.
const diffMasterSeed = 0x5eed5

// diffCases is the population size; -short runs a prefix (the cases are
// index-seeded, so the subset is stable too).
const (
	diffCases      = 200
	diffCasesShort = 30
)

// diffConfig is one generated test case: a scenario plus the rounds to
// run and the checkpoint round for the resume leg.
type diffConfig struct {
	sc      scenario
	resumeK int
}

// genTopology picks a random fabric of 128-512 tiles: at least two
// 64-tile occupancy words, so the sweeps cross word boundaries. No larger
// than that on purpose: divergence bugs are about phase ordering and RNG
// stream discipline, not scale, and 200 cases must stay inside tier-1
// time. The complete fabric stays at 128-136 tiles and runs at a thinned
// P (genP).
func genTopology(g *rng.Stream) topology.Topology {
	switch g.Intn(5) {
	case 0:
		return topology.NewGrid(8+g.Intn(18), 16+g.Intn(5))
	case 1:
		return topology.NewTorus(8+g.Intn(18), 16+g.Intn(5))
	case 2:
		return topology.NewFullyConnected(128 + g.Intn(9))
	case 3:
		return topology.NewRing(128 + g.Intn(384))
	default:
		// Two grid clusters joined by one bridge link — the Chapter 5
		// shape, where routers and forward limits matter.
		return clusterTopo(8 + g.Intn(8))
	}
}

// genP draws a case's forwarding probability from [0.2, 1) — divided by
// denseThin on the complete fabric. A round there costs tiles²·P
// transmissions per live message, and an undetected upset of a TTL byte
// (it is outside the CRC) keeps a message alive for the whole run: at the
// full P range the ~50 complete-fabric cases were 95 % of both generated
// suites' time. Thinned, a tile still sends each message to 1-4 of its
// ~130 peers a round, a grid's fan-out, with many senders into each
// arrival ring.
func genP(g *rng.Stream, topo topology.Topology) float64 {
	p := 0.2 + 0.8*g.Float64()
	if len(topo.Neighbors(0)) == topo.Tiles()-1 {
		p /= denseThin
	}
	return p
}

const denseThin = 32

// genFault rolls the full Chapter 2 knob set. Each knob is enabled
// independently, so the population covers both isolated knobs and the
// all-at-once mixes; crash knobs leave tile 0 protected so workloads are
// not stillborn.
func genFault(g *rng.Stream, tiles int) fault.Model {
	var m fault.Model
	if g.Bool(0.5) {
		m.PUpset = 0.05 + 0.3*g.Float64()
		if g.Bool(0.4) {
			m.LiteralUpsets = true
			m.ErrorModel = packet.ErrorModel(g.Intn(3))
		}
	}
	if g.Bool(0.4) {
		m.POverflow = 0.05 + 0.2*g.Float64()
	}
	if g.Bool(0.3) {
		m.PLinkCrash = 0.1 * g.Float64()
	}
	if g.Bool(0.3) {
		m.DeadTiles = g.Intn(tiles / 4)
	} else if g.Bool(0.2) {
		m.PTileCrash = 0.1 * g.Float64()
	}
	if g.Bool(0.3) {
		m.SigmaSync = 1.5 * g.Float64()
	}
	m.Protect = []packet.TileID{0}
	return m
}

// genCase builds test case idx. All randomness derives from the
// per-case stream, so cases are independent and index-stable.
func genCase(idx int) diffConfig {
	g := rng.New(diffMasterSeed).Split(uint64(idx))
	topo := genTopology(g)
	tiles := topo.Tiles()

	cfgTemplate := Config{
		Topo:                 topo,
		P:                    genP(g, topo),
		TTL:                  uint8(3 + g.Intn(14)),
		MaxRounds:            1000,
		Seed:                 g.Uint64(),
		Fault:                genFault(g, tiles),
		StopSpreadOnDelivery: g.Bool(0.15),
		// A third of the population runs the batch forwarding kernel, so
		// its samplers (mask lanes, geometric skip, high-degree fallback
		// — which one runs depends on the fabric's degree and P) face
		// the same hooked == hook-free == resumed oracle as the default path.
		BatchDraws: g.Bool(0.35),
	}

	// Routers and forward limits on a few random tiles. The route tables
	// are generated here as plain data so the setup closure, which runs
	// once per engine instance, replays identically.
	type routerSpec struct {
		tile  packet.TileID
		ports []packet.TileID
		limit int
	}
	var routers []routerSpec
	if g.Bool(0.3) {
		for i, n := 0, 1+g.Intn(2); i < n; i++ {
			t := packet.TileID(g.Intn(tiles))
			nbrs := topo.Neighbors(t)
			if len(nbrs) == 0 {
				continue
			}
			spec := routerSpec{tile: t, limit: g.Intn(3)} // 0 = unlimited
			for _, nb := range nbrs {
				if g.Bool(0.7) {
					spec.ports = append(spec.ports, nb)
				}
			}
			routers = append(routers, spec)
		}
	}

	var injections []injection
	rounds := 10 + g.Intn(30)
	for i, n := 0, 1+g.Intn(4); i < n; i++ {
		in := injection{
			beforeRound: g.Intn(rounds * 3 / 4),
			src:         packet.TileID(g.Intn(tiles)),
			dst:         packet.TileID(g.Intn(tiles)),
			kind:        packet.Kind(g.Intn(3)),
		}
		if g.Bool(0.5) {
			in.dst = packet.Broadcast
		}
		if g.Bool(0.6) {
			in.payload = fmt.Sprintf("diff-%d-%d", idx, i)
		}
		injections = append(injections, in)
	}

	sc := scenario{
		name:   fmt.Sprintf("case-%03d", idx),
		cfg:    func() Config { return cfgTemplate },
		inject: injections,
		rounds: rounds,
	}
	if len(routers) > 0 {
		sc.setup = func(n *Network) {
			for _, r := range routers {
				ports := r.ports
				n.SetRouter(r.tile, func(*packet.Packet) []packet.TileID { return ports })
				if r.limit > 0 {
					n.SetForwardLimit(r.tile, r.limit)
				}
			}
		}
	}
	return diffConfig{sc: sc, resumeK: 1 + g.Intn(rounds-1)}
}

// TestDifferentialRandomConfigs is the randomized differential pass. For
// each generated case the run with an OnEvent listener is the reference;
// a hook-free run and a snapshot-resumed run (interrupt at a random
// round, resume, finish) must reproduce its record (compareRuns): the
// state at every round barrier, and the event log between the hooked
// runs.
func TestDifferentialRandomConfigs(t *testing.T) {
	cases := diffCases
	if testing.Short() {
		cases = diffCasesShort
	}
	for idx := 0; idx < cases; idx++ {
		dc := genCase(idx)
		t.Run(dc.sc.name, func(t *testing.T) {
			want := runScenario(t, dc.sc, true)
			compareRuns(t, "hook-free", want, runScenario(t, dc.sc, false))
			compareRuns(t, fmt.Sprintf("snapshot-resume at k=%d", dc.resumeK), want, runResumedScenario(t, dc.sc, dc.resumeK, true))
		})
	}
}
