package core

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// The variant table: the engine's invariance promises, checked over one
// population. Every case of the population runs once as the baseline —
// unedited, with an OnEvent listener — and once per row that applies to
// it. Each row edits the run (hook-free, resumed from a snapshot, a
// settlement gate cleared, recycling flipped) and its record must match
// the baseline's (compareRuns) under the row's equivalence:
//
//	exact         the whole record, event log included (the row listens)
//	exceptEvents  all but the event log (the row runs hook-free)
//	relabelled    the whole record after relabel: message IDs by EvCreated
//	              order, without what recycling changes (the row listens)
//
// The table runs as nine suites, one per promise (the Test functions
// below). Each names the parts of the population it covers and the rows
// it judges there, and every pair of a row and a part belongs to exactly
// one suite. The suites share each case's baseline (baseline), so it runs
// once per test binary, not once per suite.
//
// The generated parts are seeded (diffMasterSeed, recycleMasterSeed) and
// split one stream per case, so every case is reproducible from its index
// alone: a failure names the suite, the case and the row, and re-running
// replays it.

// slice is a set of the population's parts.
type slice uint8

const (
	diffs    slice = 1 << iota // generated cases (genCase)
	recycles                   // generated recycling cases (genRecycleCase)
	scens                      // scenarios() and everythingScenario
	elides                     // the cases next to the settlement gates (elisionCases)
	subTTLs                    // the sub-TTL meshes (subTTLScenarios)
)

// member is one case of the population: a scenario, its part and the
// rounds the resume rows interrupt it at.
type member struct {
	sc      scenario
	slice   slice
	resumes []int
}

// population is every case the variant table runs. -short runs a prefix
// of each generated part (the cases are index-seeded, so the subset is
// stable too), one resume round per scenario and the smaller sub-TTL mesh.
func population() []member {
	diff, recycle, meshes := diffCases, recycleCases, subTTLScenarios()
	if testing.Short() {
		diff, recycle, meshes = diffCasesShort, recycleCasesShort, meshes[:1]
	}
	var pop []member
	for idx := range diff {
		pop = append(pop, genCase(idx))
	}
	for idx := range recycle {
		pop = append(pop, genRecycleCase(idx))
	}
	for _, sc := range append(scenarios(), everythingScenario()) {
		m := member{sc: sc, slice: scens}
		// IP-core state is the application's to checkpoint (see the
		// snapshot.go file comment), so a scenario with processes of its
		// own cannot round-trip through Restore.
		if sc.name != "grid-processes-receiver" {
			m.resumes = []int{1, sc.rounds / 2, sc.rounds - 1}
			if testing.Short() {
				m.resumes = m.resumes[:1]
			}
		}
		pop = append(pop, m)
	}
	for _, sc := range elisionCases() {
		pop = append(pop, member{sc: sc, slice: elides})
	}
	for _, sc := range meshes {
		pop = append(pop, member{sc: sc, slice: subTTLs, resumes: []int{8}}) // mid-spread
	}
	return pop
}

// equivalence is how a row's record must match the baseline's.
type equivalence uint8

const (
	exact equivalence = iota
	exceptEvents
	relabelled
)

// variant is one row of the table.
type variant struct {
	name   string
	eq     equivalence
	resume bool           // interrupted and resumed at each of the case's resume rounds
	cfg    func(*Config)  // config edit, before New
	gate   func(*Network) // gate edit, after New
	// reuse, if set, holds the network the row's previous run ended with:
	// the next run Resets it instead of calling New (see scenario.run).
	reuse *(*Network)
	// covers reports whether a case exercised what the row is there for;
	// need is how many of the suite's cases must.
	covers func(sc scenario, want, got runRecord) bool
	need   func(cases int) int
}

func clearElision(n *Network)    { n.elideDup = false }
func clearSettlement(n *Network) { n.settleUpsets = false }
func aQuarter(cases int) int     { return cases / 4 }

var (
	hookFree        = variant{name: "hook-free", eq: exceptEvents}
	resumed         = variant{name: "resumed", eq: exact, resume: true}
	resumedHookFree = variant{name: "resumed hook-free", eq: exceptEvents, resume: true}
	// Sender-side duplicate elision is a pure optimisation. A population
	// in which the gate never opens on duplicate traffic would compare the
	// ring path with itself.
	elisionCleared = variant{
		name: "elision gate cleared", eq: exact, gate: clearElision,
		covers: func(_ scenario, want, _ runRecord) bool { return want.elide && want.cnt.Duplicates > 0 },
		need:   aQuarter,
	}
	elisionClearedHookFree = variant{name: "elision gate cleared, hook-free", eq: exceptEvents, gate: clearElision}
	// Sender-side upset settlement is a pure optimisation. Under a
	// listener the gate stays shut: the baseline checks its own.
	settlementCleared = variant{
		name: "settlement gate cleared, hook-free", eq: exceptEvents, gate: clearSettlement,
		covers: func(sc scenario, want, got runRecord) bool {
			return got.settle && !sc.cfg().Fault.LiteralUpsets && onTimeUpsets(want.barriers)
		},
		need: aQuarter,
	}
	// Recycling changes the IDs issued after a retirement,
	// Counters.Retired and AwareAt of retired messages, and nothing else —
	// Aware of every issued message at every barrier included, which with
	// the per-round counters and tallies are the inputs of every metrics
	// series. The population must retire, or on and off run the same
	// lifecycle.
	recyclingFlipped = variant{
		name: "recycling flipped", eq: relabelled,
		cfg:    func(c *Config) { c.Recycle = !c.Recycle },
		covers: func(_ scenario, want, got runRecord) bool { return want.cnt.Retired+got.cnt.Retired > 0 },
		need:   func(int) int { return 1 },
	}
	// Reset is New on storage that held another run: every case runs on
	// the network the previous case left, so fabric size, recycling,
	// literal upsets, skew and processes change from one to the next.
	// An eighth of the cases must reuse the previous case's table rows
	// (same width), or stale bits in them would go untested.
	resetFromPrevious = variant{
		name: "reset from the previous case", eq: exact, reuse: new(*Network),
		covers: func(_ scenario, _, got runRecord) bool { return got.reused },
		need:   func(cases int) int { return cases / 8 },
	}
)

// baselines holds each case's baseline record by case name, for the
// suites that share the case. The suites run one at a time (none is
// parallel); the full population's records take about 35 MB.
var baselines = map[string]runRecord{}

// baseline returns m's baseline record, running it on first use. Every
// baseline must keep the settlement gate shut under its listener, a
// scenario's must produce events and deliveries, and a sub-TTL mesh's
// must retire messages.
func baseline(t *testing.T, m member) runRecord {
	t.Helper()
	if want, ok := baselines[m.sc.name]; ok {
		return want
	}
	want := m.sc.run(t, variant{}, true, 0)
	switch {
	case want.settle:
		t.Fatal("the settlement gate opened under a listener")
	case m.slice == scens && (len(want.events) == 0 || len(want.mail) == 0):
		t.Fatal("scenario produced no events or no deliveries — not a meaningful comparison")
	case m.slice == subTTLs && want.cnt.Retired == 0:
		t.Fatal("scenario retired nothing — sub-TTL churn is not exercising recycling")
	}
	baselines[m.sc.name] = want
	return want
}

// runSuite runs every case of the population's parts through rows, one
// subtest per case, each row against the case's baseline; a case that
// none of the rows runs (resume rows on a scenario that cannot resume)
// gets no subtest. It then judges each row's coverage guard over the
// suite's cases, unless a -run filter left some out.
func runSuite(t *testing.T, parts slice, rows ...variant) {
	var cases []member
	for _, m := range population() {
		if m.slice&parts == 0 {
			continue
		}
		for _, v := range rows {
			if !v.resume || len(m.resumes) > 0 {
				cases = append(cases, m)
				break
			}
		}
	}
	ran, covered := 0, make([]int, len(rows))
	for _, m := range cases {
		t.Run(m.sc.name, func(t *testing.T) {
			ran++
			want := baseline(t, m)
			for i, v := range rows {
				ks := []int{0}
				if v.resume {
					ks = m.resumes
				}
				for _, k := range ks {
					got := m.sc.run(t, v, v.eq != exceptEvents, k)
					if v.covers != nil && v.covers(m.sc, want, got) {
						covered[i]++
					}
					label := v.name
					if k > 0 {
						label = fmt.Sprintf("%s at k=%d", v.name, k)
					}
					if v.eq == relabelled {
						compareRuns(t, label, relabel(t, want), relabel(t, got))
					} else {
						compareRuns(t, label, want, got)
					}
				}
			}
		})
	}
	for i, v := range rows {
		if v.covers == nil {
			continue
		}
		if ran < len(cases) {
			t.Logf("%s: %d of %d cases ran, coverage not judged", v.name, ran, len(cases))
			continue
		}
		t.Logf("%s: %d of %d cases covered", v.name, covered[i], len(cases))
		if need := v.need(len(cases)); covered[i] < need {
			t.Errorf("%s: only %d of %d cases exercised the row, want >= %d", v.name, covered[i], len(cases), need)
		}
	}
}

// TestDifferentialRandomConfigs: a generated case's hook-free run and its
// run interrupted, snapshotted and resumed at a random round leave its
// baseline's record.
func TestDifferentialRandomConfigs(t *testing.T) { runSuite(t, diffs, hookFree, resumed) }

// TestRecycleDifferentialRandomConfigs extends that contract to the
// recycling cases: retirement order, slot reuse and the IDs of
// late-injected messages replay too.
func TestRecycleDifferentialRandomConfigs(t *testing.T) { runSuite(t, recycles, hookFree, resumed) }

// TestHookFreeRunsMatchHooked: a hook-free run of a scenario or an
// elision case, where the engine settles upsets and duplicates at the
// sender, leaves its baseline's record.
func TestHookFreeRunsMatchHooked(t *testing.T) { runSuite(t, scens|elides, hookFree) }

// TestSnapshotResumeBitIdentity: interrupting every resumable scenario —
// the everything scenario with all fault knobs included — at
// k ∈ {1, mid, n−1} and resuming, with a listener and hook-free,
// reproduces the straight-through run down to the snapshot payload at
// every round barrier.
func TestSnapshotResumeBitIdentity(t *testing.T) {
	runSuite(t, scens, resumed, resumedHookFree)
}

// TestSubTTLDifferential extends the hook-free and resume contracts onto
// meshes large enough that the frontier scheduler engages.
func TestSubTTLDifferential(t *testing.T) { runSuite(t, subTTLs, hookFree, resumedHookFree) }

// TestDuplicateElisionInvisible pins sender-side duplicate elision as a
// pure optimisation: with the gate cleared, listening and hook-free,
// every generated case, scenario and elision case leaves its baseline's
// record, and at least a quarter of them run the gate open on duplicate
// traffic.
func TestDuplicateElisionInvisible(t *testing.T) {
	runSuite(t, diffs|scens|elides, elisionCleared, elisionClearedHookFree)
}

// TestUpsetSettlementInvisible pins sender-side upset settlement as a
// pure optimisation over the same cases: hook-free with the gate cleared,
// each leaves its baseline's record, and at least a quarter of them
// settle an on-time upset at the sender when the gate is open.
func TestUpsetSettlementInvisible(t *testing.T) {
	runSuite(t, diffs|scens|elides, settlementCleared)
}

// TestRecycleIsRelabelling pins what Config.Recycle changes: flipped on
// every generated and recycling case, the run leaves its baseline's
// record once IDs are mapped by issue order, and some case retires.
func TestRecycleIsRelabelling(t *testing.T) {
	runSuite(t, diffs|recycles, recyclingFlipped)
}

// TestResetMatchesNew pins Network.Reset as New on reused storage: every
// case of the population, run on the network the previous case ended
// with, Reset, leaves its baseline's record, and at least an eighth of
// them reuse the previous case's message-table rows.
func TestResetMatchesNew(t *testing.T) {
	runSuite(t, diffs|recycles|scens|elides|subTTLs, resetFromPrevious)
}

// diffMasterSeed roots the config generator. Changing it trades the
// whole generated population for a fresh one — fine, but do it on
// purpose, not accidentally.
const diffMasterSeed = 0x5eed5

// diffCases is the size of the generated part.
const (
	diffCases      = 200
	diffCasesShort = 30
)

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
func genCase(idx int) member {
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
	return member{sc: sc, slice: diffs, resumes: []int{1 + g.Intn(rounds-1)}}
}
