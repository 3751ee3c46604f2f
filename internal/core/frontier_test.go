package core

// Frontier-memory tests: what a sub-TTL mega-mesh keeps resident must
// follow what is live. Three promises are pinned here — a tile with no
// Process stores no deliveries (the mailbox contract), the hot-slot pool
// is sized by the frontier and shrinks when the frontier does, and steady
// churn neither grows the heap nor allocates per round.

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// recorderProc is a Process that only listens: it logs the IDs its
// Receiver is handed, in order, and sends nothing.
type recorderProc struct{ got []packet.MsgID }

func (r *recorderProc) Init(*Ctx)  {}
func (r *recorderProc) Round(*Ctx) {}
func (r *recorderProc) Receive(_ *Ctx, p *packet.Packet) {
	r.got = append(r.got, p.ID)
}

// bufOf returns t's send buffer, nil while t is cold.
func bufOf(t *tile) []packet.Packet {
	if t.hot == nil {
		return nil
	}
	return t.hot.buf
}

// inFlight returns how many copies are in flight toward t.
func inFlight(t *tile) int {
	if t.hot == nil {
		return 0
	}
	return t.hot.ring.count
}

// churnNet builds a side×side TTL-16 recycling mesh with no processes and
// returns it with a function that injects perRound broadcasts at scattered
// tiles and steps once — the mesh_sparse workload in miniature.
func churnNet(tb testing.TB, side, perRound int) (*Network, func()) {
	tb.Helper()
	n, err := New(Config{
		Topo: topology.NewGrid(side, side), P: 0.5, TTL: 16, MaxRounds: 1 << 30,
		Seed: 0xF407, Recycle: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tiles := side * side
	return n, func() {
		for i := 0; i < perRound; i++ {
			src := packet.TileID((int64(n.Round()*perRound)*2654435761 + int64(i*40503)) % int64(tiles))
			mustInject(tb, n, src, packet.Broadcast, 0, nil)
		}
		n.Step()
	}
}

// checkPoolAccounting verifies, at a round barrier, that a tile holds a
// hot slot exactly when it is on the frontier (its bufOcc or rcvOcc bit
// is set), that the pool's armed count is the number of slots held, that
// every pooled slot is empty, that the free list is trimmed, and that Mem
// reports the counts.
func checkPoolAccounting(tb testing.TB, n *Network) {
	tb.Helper()
	held := 0
	for i := range n.tiles {
		t := &n.tiles[i]
		frontier := n.bufOcc.bits[i>>6]&(1<<(i&63)) != 0 || n.rcvOcc.bits[i>>6]&(1<<(i&63)) != 0
		if (t.hot != nil) != frontier {
			tb.Fatalf("round %d: tile %d holds a slot: %v, on the frontier: %v", n.Round(), i, t.hot != nil, frontier)
		}
		if t.hot != nil {
			held++
		}
	}
	if held != n.slots.armed {
		tb.Fatalf("round %d: %d slots held, pool counts %d armed", n.Round(), held, n.slots.armed)
	}
	for _, s := range n.slots.free {
		if len(s.buf) != 0 || s.ring.count != 0 {
			tb.Fatalf("round %d: a pooled slot buffers %d copies with %d in flight", n.Round(), len(s.buf), s.ring.count)
		}
	}
	if len(n.slots.free) > max(poolFloor, held) {
		tb.Fatalf("round %d: %d slots pooled with %d armed", n.Round(), len(n.slots.free), held)
	}
	if m := n.Mem(); m.ArmedSlots != held || m.PooledSlots != len(n.slots.free) {
		tb.Fatalf("round %d: Mem reports %d armed, %d pooled; pool holds %d, %d",
			n.Round(), m.ArmedSlots, m.PooledSlots, held, len(n.slots.free))
	}
}

// TestFrontierMemoryPinned is the growth pin: 256×256, TTL 16, four
// broadcasts a round, nobody attached. Once warm, a thousand more rounds
// must leave the collected heap where it was (a stored delivery per
// reached tile grows it by ~67 KB a round on this mesh) and a round must
// not allocate (a ring pool smaller than the frontier re-allocates
// thousands of rings a round).
func TestFrontierMemoryPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("1200 rounds of 256x256 churn; skipped under -short")
	}
	n, round := churnNet(t, 256, 4)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for n.Round() < 200 { // well past 3×TTL: frontier, table and pools are in steady state
		round()
	}
	warm := heap()
	for n.Round() < 1200 {
		round()
	}
	if end := heap(); end > warm+2<<20 {
		t.Errorf("heap grew %d KB between rounds 200 and 1200 of steady churn, want < 2048",
			(end-warm)>>10)
	}
	if allocs := testing.AllocsPerRun(100, round); allocs > 16 {
		t.Errorf("steady churn round allocates %.0f times, want <= 16", allocs)
	}
	for i := range n.tiles {
		if n.tiles[i].cold != 0 {
			t.Fatalf("tile %d grew an IP-core block with nothing attached", i)
		}
	}
	checkPoolAccounting(t, n)
}

// TestTileStaysSlim pins the per-tile fixed cost: a mega-mesh pays it for
// every tile, hot or not, so what only attached tiles need belongs in
// coldTile, and the ports live in the network's port table.
func TestTileStaysSlim(t *testing.T) {
	if size := unsafe.Sizeof(tile{}); size > 56 {
		t.Errorf("tile is %d bytes, want <= 56", size)
	}
}

// TestPortTableMatchesInjector holds every port of the table to the
// fault injector: the port's peer is the topology's neighbour in port
// order, and the port is up exactly when Injector.LinkAlive says so.
// Reset takes the verdict from tile liveness alone when no link crashed,
// so the cases cover crashed tiles and crashed links apart and together.
func TestPortTableMatchesInjector(t *testing.T) {
	models := map[string]fault.Model{
		"clean":       {},
		"dead-tiles":  {DeadTiles: 5},
		"dead-links":  {DeadLinks: 9},
		"both":        {DeadTiles: 3, DeadLinks: 7},
		"p-link-only": {PLinkCrash: 0.2},
	}
	for _, topo := range []topology.Topology{topology.NewGrid(6, 5), topology.NewTorus(5, 4)} {
		for name, m := range models {
			n, err := New(Config{Topo: topo, P: 0.5, TTL: 4, Seed: 11, Fault: m})
			if err != nil {
				t.Fatal(err)
			}
			deadPorts := 0
			for i := range n.tiles {
				tl := &n.tiles[i]
				nbrs := topo.Neighbors(tl.id)
				ports := n.ports(tl)
				if len(ports) != len(nbrs) {
					t.Fatalf("%s: tile %d has %d ports, want %d", name, i, len(ports), len(nbrs))
				}
				for j, nb := range nbrs {
					if ports[j].peer() != nb {
						t.Errorf("%s: tile %d port %d leads to %d, want %d", name, i, j, ports[j].peer(), nb)
					}
					if want := n.inj.LinkAlive(tl.id, nb); ports[j].up() != want {
						t.Errorf("%s: tile %d port %d up = %v, LinkAlive = %v", name, i, j, ports[j].up(), want)
					}
					if !ports[j].up() {
						deadPorts++
					}
				}
			}
			if (name == "clean") != (deadPorts == 0) {
				t.Errorf("%s: %d dead ports", name, deadPorts)
			}
		}
	}
}

// sizedTopo reports a tile count without holding any adjacency; it is
// for Validate only, which never asks for neighbours.
type sizedTopo int

func (s sizedTopo) Tiles() int                            { return int(s) }
func (sizedTopo) Neighbors(packet.TileID) []packet.TileID { return nil }

// starTopo links tile 0 to each of the other tiles. AddLink on a Graph
// checks for duplicates, which makes a 65 536-port star quadratic to
// build.
type starTopo struct{ hub, leaf []packet.TileID }

func newStarTopo(deg int) *starTopo {
	s := &starTopo{hub: make([]packet.TileID, deg), leaf: []packet.TileID{0}}
	for i := range s.hub {
		s.hub[i] = packet.TileID(i + 1)
	}
	return s
}

func (s *starTopo) Tiles() int { return len(s.hub) + 1 }
func (s *starTopo) Neighbors(t packet.TileID) []packet.TileID {
	if t == 0 {
		return s.hub
	}
	return s.leaf
}

// TestPackedLayoutLimits pins the bounds of the packed port layout at
// their edges: a tile ID must stay below the dead bit (portDead), so
// Validate takes 2^31 tiles and refuses one more; a tile's degree is a
// uint16, so Reset takes a tile of 65 535 ports and refuses 65 536. An
// off-by-one in either would let a tile ID or a degree wrap into the dead
// bit or the next tile's ports instead of failing.
func TestPackedLayoutLimits(t *testing.T) {
	if bits.UintSize == 64 {
		limit := uint64(portDead)
		if err := (&Config{Topo: sizedTopo(limit), P: 0.5, TTL: 1}).Validate(); err != nil {
			t.Errorf("2^31 tiles refused: %v", err)
		}
		if err := (&Config{Topo: sizedTopo(limit + 1), P: 0.5, TTL: 1}).Validate(); err == nil {
			t.Error("2^31+1 tiles accepted; tile IDs would reach the dead bit")
		}
	}
	var n Network
	if err := n.Reset(Config{Topo: newStarTopo(math.MaxUint16), P: 0.5, TTL: 1}); err != nil {
		t.Errorf("a tile of 65535 ports refused: %v", err)
	} else if got := len(n.ports(&n.tiles[0])); got != math.MaxUint16 {
		t.Errorf("tile 0 has %d ports, want 65535", got)
	}
	if err := n.Reset(Config{Topo: newStarTopo(math.MaxUint16 + 1), P: 0.5, TTL: 1}); err == nil {
		t.Error("a tile of 65536 ports accepted; its uint16 degree would wrap")
	}
}

// TestPoolsFollowFrontier drives a frontier of thousands of tiles, lets it
// collapse, and starts one small pocket: the slot pool must cover the big
// frontier while it lives (no allocation per round) and fall back to the
// floor once it is gone.
func TestPoolsFollowFrontier(t *testing.T) {
	n, round := churnNet(t, 128, 4)
	// Warm until bucket and buffer capacities have stopped growing (pooled
	// storage keeps what it grew to): what allocates after that is a pool
	// running dry.
	for n.Round() < 320 {
		round()
		checkPoolAccounting(t, n)
	}
	big := n.Mem()
	if big.ArmedSlots < 8*poolFloor {
		t.Fatalf("only %d slots armed; the frontier never outgrew the pool floor", big.ArmedSlots)
	}
	// A pool held at the floor would allocate for every tile past it
	// (~10k).
	if allocs := testing.AllocsPerRun(20, round); allocs > 64 {
		t.Errorf("a round over %d armed slots allocates %.0f times, want <= 64", big.ArmedSlots, allocs)
	}
	if left := n.Drain(64); left == 64 {
		t.Fatal("churn did not drain")
	}
	checkPoolAccounting(t, n)
	if m := n.Mem(); m.ArmedSlots != 0 || m.PooledSlots > poolFloor {
		t.Errorf("after the drain %d slots armed and %d pooled; want 0 and <= %d",
			m.ArmedSlots, m.PooledSlots, poolFloor)
	}
	mustInject(t, n, 77, packet.Broadcast, 0, nil)
	for i := 0; i < 6; i++ {
		n.Step()
		checkPoolAccounting(t, n)
	}
	if m := n.Mem(); m.ArmedSlots == 0 || m.ArmedSlots > poolFloor {
		t.Errorf("the pocket armed %d slots, want a few dozen", m.ArmedSlots)
	}
}

// TestPoolAccountingExact replays the engine scenarios — routers,
// forward limits, literal frames, skew, Receiver processes — and checks
// the pools' books every round, with a listener and hook-free, and across
// a snapshot/restore.
func TestPoolAccountingExact(t *testing.T) {
	for _, sc := range append(scenarios(), subTTLScenarios()[0]) {
		base := sc.cfg
		sc.cfg = func() Config {
			cfg := base()
			cfg.OnRoundEnd = func(_ int, n *Network) { checkPoolAccounting(t, n) }
			return cfg
		}
		for _, listen := range []bool{true, false} {
			runScenario(t, sc, listen)
			runResumedScenario(t, sc, sc.rounds/3, listen)
		}
	}
}

// mailboxScenario is a small mixed workload that drains well before its
// last round, so every delivery has been handed to its Process by then.
func mailboxScenario(setup func(n *Network)) scenario {
	return scenario{
		name: "mailbox-14x14",
		cfg: func() Config {
			return Config{
				Topo: topology.NewGrid(14, 14), P: 0.7, TTL: 6, MaxRounds: 1000, Seed: 0x3A11,
				Fault: fault.Model{PUpset: 0.05, LiteralUpsets: true, SigmaSync: 0.5},
			}
		},
		setup: setup,
		inject: []injection{
			{beforeRound: 0, src: 0, dst: packet.Broadcast, payload: "all"},
			{beforeRound: 2, src: 195, dst: 165, payload: "one"},
			{beforeRound: 5, src: 61, dst: packet.Broadcast},
			{beforeRound: 9, src: 134, dst: packet.Broadcast, payload: "late"},
		},
		rounds: 40,
	}
}

// TestMailboxOnlyWithProcess pins the mailbox contract from both sides. A
// network with nothing attached and one with a listening Process on every
// tile produce the same counters and tallies at every round barrier, the
// same aware tables and RNG states and, with a listener, the same event
// log, with a listener and hook-free; the bare one stores nothing (no
// tile even grows an IP-core block), and in the other every Process is
// handed each of its tile's deliveries exactly once, in the order the
// event log delivers them.
func TestMailboxOnlyWithProcess(t *testing.T) {
	var want [][]packet.MsgID
	for _, listen := range []bool{true, false} {
		var bareNet *Network
		sc := mailboxScenario(func(n *Network) { bareNet = n })
		sc.bare = true
		bare := runScenario(t, sc, listen)
		if bare.cnt.Deliveries < 64 {
			t.Fatalf("scenario delivered only %d packets", bare.cnt.Deliveries)
		}
		for i := range bareNet.tiles {
			if bareNet.tiles[i].cold != 0 {
				t.Fatalf("listen=%v: process-less tile %d stored its deliveries", listen, i)
			}
		}

		var procs []*recorderProc
		heard := runScenario(t, mailboxScenario(func(n *Network) {
			procs = procs[:0]
			for i := 0; i < n.Topology().Tiles(); i++ {
				procs = append(procs, &recorderProc{})
				n.Attach(packet.TileID(i), procs[i])
			}
		}), listen)
		// Mailboxes are state: only the snapshot bytes may differ.
		for _, s := range []*runRecord{&bare, &heard} {
			for i := range s.barriers {
				s.barriers[i].state = 0
			}
		}
		compareRuns(t, fmt.Sprintf("listen=%v: attaching processes", listen), bare, heard)
		if listen {
			want = make([][]packet.MsgID, len(procs))
			for _, ev := range heard.events {
				if ev.Kind == EvDeliver {
					want[ev.Tile] = append(want[ev.Tile], ev.Msg)
				}
			}
		}
		for i, p := range procs {
			if !reflect.DeepEqual(p.got, want[i]) {
				t.Fatalf("listen=%v: tile %d's process was handed %v, the event log delivered %v", listen, i, p.got, want[i])
			}
		}
	}
}

// TestAttachMidRunSeesLaterDeliveries: a Process attached after round r is
// handed only what is delivered from then on — the tile kept nothing
// while it had no IP core.
func TestAttachMidRunSeesLaterDeliveries(t *testing.T) {
	const tile = 7 // two hops from the source
	var delivered []packet.MsgID
	cfg := baseCfg(topology.NewGrid(6, 6), 1)
	cfg.TTL = 4
	cfg.OnEvent = deliveries(func(tl packet.TileID, id packet.MsgID, _ int) {
		if tl == tile {
			delivered = append(delivered, id)
		}
	})
	n := mustNet(t, cfg)
	early := mustInject(t, n, 0, packet.Broadcast, 0, []byte("early"))
	for i := 0; i < 4; i++ {
		n.Step()
	}
	proc := &recorderProc{}
	n.Attach(tile, proc)
	late := mustInject(t, n, 0, packet.Broadcast, 0, []byte("late"))
	for i := 0; i < 6; i++ {
		n.Step()
	}
	if want := []packet.MsgID{early, late}; !reflect.DeepEqual(delivered, want) {
		t.Fatalf("tile %d deliveries = %v, want %v", tile, delivered, want)
	}
	if want := []packet.MsgID{late}; !reflect.DeepEqual(proc.got, want) {
		t.Fatalf("process attached at round 4 was handed %v, want %v", proc.got, want)
	}
}

// TestRestoreKeepsMailboxes: deliveries waiting in mailboxes at a
// checkpoint are serialized, survive a restore byte for byte with nothing
// attached, and are drained in the next round's computation phase by the
// Process the caller re-attaches.
func TestRestoreKeepsMailboxes(t *testing.T) {
	cfg := baseCfg(topology.NewGrid(4, 4), 1)
	n := mustNet(t, cfg)
	for i := 0; i < 16; i++ {
		n.Attach(packet.TileID(i), &recorderProc{})
	}
	id := mustInject(t, n, 0, packet.Broadcast, 0, []byte("held"))
	n.Step()
	n.Step() // tiles 2, 5 and 8 took delivery this round; nobody has run since
	ckpt := snapshotBytes(t, n)

	restored, err := Restore(bytes.NewReader(ckpt), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again := snapshotBytes(t, restored); !bytes.Equal(ckpt, again) {
		t.Fatal("snapshot → restore → snapshot changed the bytes")
	}
	mail := func(i int) []packet.MsgID {
		var ids []packet.MsgID
		if c := restored.cold(&restored.tiles[i]); c != nil {
			for _, p := range c.mailbox {
				ids = append(ids, p.ID)
			}
		}
		return ids
	}
	for i := range 16 {
		var want []packet.MsgID
		if i == 2 || i == 5 || i == 8 {
			want = []packet.MsgID{id}
		}
		if got := mail(i); !reflect.DeepEqual(got, want) {
			t.Errorf("restored tile %d's mailbox holds %v, want %v", i, got, want)
		}
		restored.Attach(packet.TileID(i), &recorderProc{})
	}
	restored.Step()
	for _, i := range []int{2, 5, 8} {
		if got := mail(i); len(got) != 0 {
			t.Errorf("tile %d's mailbox still holds %v after its re-attached process ran", i, got)
		}
	}
}
