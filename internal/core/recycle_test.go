package core

// Property tests for epoch-based MsgID recycling (Config.Recycle). The
// variant table (TestRecycleDifferentialRandomConfigs and
// TestRecycleIsRelabelling) pins that recycling never breaks
// determinism and only relabels; this file pins the lifecycle semantics
// themselves, randomized over the same topology × fault population:
//
//   - a retired-and-reissued slot never resurrects the old message's
//     awareness (Aware frozen at the ledger value, AwareAt empty, the
//     reissued ID distinct from every retired one);
//   - wire frames carrying a stale generation are dropped as ghosts and
//     counted, never decoded into the slot's new tenant;
//   - under continuous churn the slot table is bounded by the peak live
//     population, not by the number of messages ever issued.

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// recycleMasterSeed roots the recycling case generator, independent of
// the diff population.
const recycleMasterSeed = 0x4ec1c1e

const (
	recycleCases      = 60
	recycleCasesShort = 10
)

// genRecycleCase builds one randomized recycling scenario: like genCase
// but with Recycle enabled, a longer run, a denser injection schedule and
// TTLs short enough that messages actually die and retire mid-run.
func genRecycleCase(idx int) member {
	g := rng.New(recycleMasterSeed).Split(uint64(idx))
	topo := genTopology(g)
	tiles := topo.Tiles()

	cfgTemplate := Config{
		Topo:                 topo,
		P:                    genP(g, topo),
		TTL:                  uint8(3 + g.Intn(6)),
		MaxRounds:            1000,
		Seed:                 g.Uint64(),
		Fault:                genFault(g, tiles),
		StopSpreadOnDelivery: g.Bool(0.15),
		Recycle:              true,
	}

	rounds := 30 + g.Intn(30)
	var injections []injection
	for i, k := 0, 6+g.Intn(8); i < k; i++ {
		in := injection{
			beforeRound: g.Intn(rounds - 5),
			src:         packet.TileID(g.Intn(tiles)),
			dst:         packet.TileID(g.Intn(tiles)),
			kind:        packet.Kind(g.Intn(3)),
		}
		if g.Bool(0.5) {
			in.dst = packet.Broadcast
		}
		if g.Bool(0.6) {
			in.payload = fmt.Sprintf("recycle-%d-%d", idx, i)
		}
		injections = append(injections, in)
	}

	sc := scenario{
		name:   fmt.Sprintf("recycle-%03d", idx),
		cfg:    func() Config { return cfgTemplate },
		inject: injections,
		rounds: rounds,
	}
	return member{sc: sc, slice: recycles, resumes: []int{1 + g.Intn(rounds-1)}}
}

// TestRecycleNoResurrection is the lifecycle property pass: stepping
// randomized recycling runs round by round, it watches the slot table for
// generation bumps (= retirements) and asserts, for every retired ID at
// every later round, that Aware stays frozen at the ledger value, that no
// tile reports awareness, and that no later-issued ID ever equals a
// retired one.
func TestRecycleNoResurrection(t *testing.T) {
	cases := 20
	if testing.Short() {
		cases = 5
	}
	for idx := 0; idx < cases; idx++ {
		dc := genRecycleCase(idx)
		t.Run(dc.sc.name, func(t *testing.T) {
			cfg := dc.sc.cfg()
			n := mustNet(t, cfg)
			tiles := n.Topology().Tiles()

			lastGen := map[uint32]uint32{}
			frozen := map[packet.MsgID]int{} // retired ID -> Aware at retirement
			var issued []packet.MsgID

			for round := 0; round < dc.sc.rounds; round++ {
				for _, in := range dc.sc.inject {
					if in.beforeRound != round {
						continue
					}
					var payload []byte
					if in.payload != "" {
						payload = []byte(in.payload)
					}
					id := mustInject(t, n, in.src, in.dst, in.kind, payload)
					if _, wasRetired := frozen[id]; wasRetired {
						t.Fatalf("round %d: reissued ID %d equals a retired ID", round, id)
					}
					issued = append(issued, id)
					if g := msgGen(id); g != lastGen[msgSlot(id)] {
						t.Fatalf("round %d: ID %d issued under generation %d, slot is at %d",
							round, id, g, lastGen[msgSlot(id)])
					}
					lastGen[msgSlot(id)] = msgGen(id)
				}
				n.Step()

				// Detect retirements: a slot whose generation moved past the
				// last issue binds no message; the old packed ID is dead.
				for s := uint32(1); s <= uint32(n.issuedSlots()); s++ {
					if g := n.tbl.gens[s]; g > lastGen[s] {
						old := packMsgID(s, lastGen[s])
						frozen[old] = n.Aware(old)
						lastGen[s] = g
					}
				}
				for id, want := range frozen {
					if got := n.Aware(id); got != want {
						t.Fatalf("round %d: retired message %d Aware moved %d -> %d",
							round, id, want, got)
					}
					for ti := 0; ti < tiles; ti++ {
						if n.AwareAt(id, packet.TileID(ti)) {
							t.Fatalf("round %d: retired message %d resurrected awareness at tile %d",
								round, id, ti)
						}
					}
				}
			}
			if n.Counters().Retired != len(frozen) {
				t.Fatalf("Counters.Retired = %d, observed %d generation bumps",
					n.Counters().Retired, len(frozen))
			}
			// Every frozen value must match the ledger (absent = 0).
			for id, want := range frozen {
				if got := int(n.tbl.retired[id]); got != want {
					t.Fatalf("retired ledger holds %d for message %d, Aware froze at %d", got, id, want)
				}
			}
			_ = issued
		})
	}
}

// TestRecycleStaleGenerationGhostFrame pins the ghost path end to end: a
// well-formed wire frame whose ID names a retired generation of a live
// slot must be discarded as a detected upset, counted in GhostFrames, and
// must not touch the slot's new tenant.
func TestRecycleStaleGenerationGhostFrame(t *testing.T) {
	cfg := Config{
		Topo: topology.NewGrid(2, 1), P: 1, TTL: 2, MaxRounds: 1000, Seed: 7,
		Fault:   fault.Model{LiteralUpsets: true},
		Recycle: true,
	}
	var events []Event
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	n := mustNet(t, cfg)

	first, err := n.Inject(0, packet.Broadcast, 0, []byte("gen-0"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8 && n.current(first); i++ {
		n.Step()
	}
	if n.current(first) {
		t.Fatal("first message never retired; cannot build a stale-generation frame")
	}
	second, err := n.Inject(0, packet.Broadcast, 0, []byte("gen-1"))
	if err != nil {
		t.Fatal(err)
	}
	if msgSlot(second) != msgSlot(first) || second == first {
		t.Fatalf("slot not recycled: first ID %d, second ID %d", first, second)
	}

	ghost := &packet.Packet{ID: first, Src: 0, Dst: 1, TTL: 30}
	frame, err := packet.Encode(ghost)
	if err != nil {
		t.Fatal(err)
	}
	base := n.Counters()
	events = nil
	n.tiles[1].ring.schedule(n.Round(), n.Round()+1, arrival{frame: frame, pkt: packet.Packet{ID: first}}, &n.rings)
	n.rebuildOccupancy() // white-box ring injection bypasses the occupancy upkeep
	n.Step()

	c := n.Counters()
	if c.UpsetsDetected != base.UpsetsDetected+1 {
		t.Fatalf("UpsetsDetected = %d, want %d (stale generation)", c.UpsetsDetected, base.UpsetsDetected+1)
	}
	if c.GhostFrames != base.GhostFrames+1 {
		t.Fatalf("GhostFrames = %d, want %d", c.GhostFrames, base.GhostFrames+1)
	}
	// The retired message must stay dead: no tile aware of it, no copy of
	// it buffered anywhere (the new tenant's organic traffic is fine).
	for ti := 0; ti < 2; ti++ {
		if n.AwareAt(first, packet.TileID(ti)) {
			t.Fatalf("ghost frame resurrected awareness of retired message %d at tile %d", first, ti)
		}
	}
	for _, p := range n.tiles[1].sendBuf {
		if p.ID == first {
			t.Fatalf("ghost frame buffered a copy of retired message %d", first)
		}
	}
	found := false
	for _, ev := range events {
		if ev.Kind == EvUpset && ev.Tile == 1 && ev.Msg == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EvUpset(Msg=0) emitted for the stale-generation frame; events: %+v", events)
	}
}

// TestRecycleBoundedSlots is the tentpole's memory claim in miniature:
// under continuous churn (fresh injections every round, short TTL) the
// slot table stops growing once it covers the peak live population, while
// the same workload with recycling off grows the table by every message
// ever issued.
func TestRecycleBoundedSlots(t *testing.T) {
	const rounds, perRound = 300, 4
	churn := func(recycle bool) *Network {
		cfg := Config{
			Topo: topology.NewGrid(8, 8), P: 0.6, TTL: 5,
			MaxRounds: 10000, Seed: 99, Recycle: recycle,
		}
		n := mustNet(t, cfg)
		for round := 0; round < rounds; round++ {
			for i := 0; i < perRound; i++ {
				src := packet.TileID((round*perRound + i) % 64)
				if _, err := n.Inject(src, packet.Broadcast, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			n.Step()
		}
		return n
	}

	off := churn(false)
	if got := off.issuedSlots(); got != rounds*perRound {
		t.Fatalf("recycle off: %d slots for %d messages", got, rounds*perRound)
	}

	on := churn(true)
	// TTL 5 bounds a message's life to ~6 rounds, so the live population
	// is O(perRound × TTL); 4× that is a generous ceiling that the old
	// O(ever-issued) representation exceeds 15-fold.
	const bound = 4 * perRound * 6
	if got := on.issuedSlots(); got > bound {
		t.Fatalf("recycle on: slot table grew to %d under churn, want <= %d", got, bound)
	}
	if retired := on.Counters().Retired; retired < rounds*perRound/2 {
		t.Fatalf("only %d of %d churned messages retired", retired, rounds*perRound)
	}
}
