package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// ---- arrivalRing unit tests ----

func mkArrival(id packet.MsgID) arrival {
	return arrival{pkt: packet.Packet{ID: id, TTL: 5}}
}

func TestRingScheduleTakeRelease(t *testing.T) {
	var r arrivalRing
	if got := r.take(0); got != nil {
		t.Fatalf("take on empty ring = %v", got)
	}
	r.schedule(10, 10, mkArrival(1), ringInitLen) // same-round arrival
	r.schedule(10, 12, mkArrival(2), ringInitLen) // slipped by 2
	r.schedule(10, 10, mkArrival(3), ringInitLen)
	if r.count != 3 {
		t.Fatalf("count = %d, want 3", r.count)
	}
	b := r.take(10)
	if len(b) != 2 || b[0].pkt.ID != 1 || b[1].pkt.ID != 3 {
		t.Fatalf("round 10 bucket = %+v, want IDs 1,3 in schedule order", b)
	}
	r.release(10)
	if r.count != 1 {
		t.Fatalf("count after release = %d, want 1", r.count)
	}
	if got := len(r.take(11)); got != 0 {
		t.Fatalf("round 11 bucket has %d arrivals, want 0", got)
	}
	r.release(11)
	b = r.take(12)
	if len(b) != 1 || b[0].pkt.ID != 2 {
		t.Fatalf("round 12 bucket = %+v, want the slipped ID 2", b)
	}
	r.release(12)
	if r.count != 0 {
		t.Fatalf("count after draining = %d, want 0", r.count)
	}
}

func TestRingGrowPreservesSchedule(t *testing.T) {
	var r arrivalRing
	// Fill several future rounds, then slip one arrival far beyond the
	// initial span so the ring must grow mid-flight.
	for slip := 0; slip < ringInitLen; slip++ {
		r.schedule(100, 100+slip, mkArrival(packet.MsgID(slip+1)), ringInitLen)
	}
	far := 100 + 3*ringInitLen
	r.schedule(100, far, mkArrival(999), ringInitLen)
	if len(r.buckets) <= ringInitLen {
		t.Fatalf("ring did not grow: len = %d", len(r.buckets))
	}
	// Every arrival must still come out at exactly its scheduled round.
	for slip := 0; slip < ringInitLen; slip++ {
		b := r.take(100 + slip)
		if len(b) != 1 || b[0].pkt.ID != packet.MsgID(slip+1) {
			t.Fatalf("round %d bucket = %+v after grow", 100+slip, b)
		}
		r.release(100 + slip)
	}
	for round := 100 + ringInitLen; round < far; round++ {
		if len(r.take(round)) != 0 {
			t.Fatalf("phantom arrival at round %d after grow", round)
		}
		r.release(round)
	}
	b := r.take(far)
	if len(b) != 1 || b[0].pkt.ID != 999 {
		t.Fatalf("far bucket = %+v, want ID 999", b)
	}
	r.release(far)
	if r.count != 0 {
		t.Fatalf("count = %d after draining grown ring", r.count)
	}
}

func TestRingRecyclesBuckets(t *testing.T) {
	var r arrivalRing
	// Warm one wrap of the ring so every bucket has capacity.
	for round := 0; round < 2*ringInitLen; round++ {
		for k := 0; k < ringInitCap; k++ {
			r.schedule(round, round, mkArrival(1), ringInitLen)
		}
		r.take(round)
		r.release(round)
	}
	round := 2 * ringInitLen
	allocs := testing.AllocsPerRun(100, func() {
		for k := 0; k < ringInitCap; k++ {
			r.schedule(round, round, mkArrival(1), ringInitLen)
		}
		r.take(round)
		r.release(round)
		round++
	})
	if allocs != 0 {
		t.Fatalf("warmed schedule/take/release allocates %v per round, want 0", allocs)
	}
}

// ---- engine integration under sync slip ----

// muteTile turns tile id into a sink: a router that never forwards.
func muteTile(n *Network, id packet.TileID) {
	n.SetRouter(id, func(*packet.Packet) []packet.TileID { return nil })
}

// TestSlippedCopiesArriveInLaterRounds drives a two-tile line with p = 1
// and heavy synchronization skew. Every transmitted copy must eventually
// be received (slip delays, never destroys), slipped receptions must be
// observed, and the run must be reproducible.
func TestSlippedCopiesArriveInLaterRounds(t *testing.T) {
	run := func() (Counters, int, int) {
		g := topology.NewGrid(2, 1)
		cfg := baseCfg(g, 1)
		cfg.TTL = 100
		cfg.MaxRounds = 1000
		cfg.Fault = fault.Model{SigmaSync: 3}
		deliverRound := -1
		expiresAtSink := 0
		cfg.OnEvent = func(ev Event) {
			switch {
			case ev.Kind == EvDeliver:
				deliverRound = ev.Round
			case ev.Kind == EvExpire && ev.Tile == 1:
				expiresAtSink++
			}
		}
		n := mustNet(t, cfg)
		muteTile(n, 1) // tile 1 only receives, so all traffic is 0 -> 1
		n.Inject(0, 1, 0, []byte("x"))
		if left := n.Drain(cfg.MaxRounds); left >= cfg.MaxRounds {
			t.Fatal("network did not drain")
		}
		return n.Counters(), deliverRound, expiresAtSink
	}

	c, deliverRound, expires := run()
	if c.SlippedDeliveries == 0 {
		t.Fatal("σ_synchr = 3 produced no slipped receptions")
	}
	// Conservation: tile 1 never forwards and nothing is corrupted, so
	// every transmitted copy must come back out of the arrival ring and be
	// received. Each reception is either a duplicate (a copy already
	// buffered) or an enqueue — and every enqueue at the muted sink later
	// expires there, so receptions = Duplicates + expiries at tile 1.
	if got := c.Duplicates + expires; got != c.Energy.Transmissions {
		t.Fatalf("received %d of %d transmissions: slipped copies lost in the ring",
			got, c.Energy.Transmissions)
	}
	if c.Deliveries != 1 {
		t.Fatalf("Deliveries = %d, want 1", c.Deliveries)
	}
	if deliverRound < 1 {
		t.Fatalf("delivery round = %d", deliverRound)
	}

	// Determinism: the same seed reproduces the same slips and counters.
	c2, r2, e2 := run()
	if c2 != c || r2 != deliverRound || e2 != expires {
		t.Fatalf("rerun diverged:\n  first  %+v (round %d)\n  second %+v (round %d)",
			c, deliverRound, c2, r2)
	}
}

// TestSlipDelaysUnicastBeyondDistance checks the slip actually shifts the
// arrival round: with p = 1 on a 2-tile line the skew-free delivery round
// is exactly 1, so under heavy skew a later first delivery is proof the
// copy rode the ring across rounds.
func TestSlipDelaysUnicastBeyondDistance(t *testing.T) {
	// Find a seed whose first copy slips: deterministic, so the seed is
	// fixed once found and the test stays stable.
	for seed := uint64(1); seed < 50; seed++ {
		g := topology.NewGrid(2, 1)
		cfg := baseCfg(g, 1)
		cfg.Seed = seed
		cfg.TTL = 50
		cfg.MaxRounds = 500
		cfg.Fault = fault.Model{SigmaSync: 4}
		deliverRound := -1
		cfg.OnEvent = deliveries(func(_ packet.TileID, _ packet.MsgID, round int) { deliverRound = round })
		n := mustNet(t, cfg)
		muteTile(n, 1)
		n.Inject(0, 1, 0, nil)
		n.Drain(cfg.MaxRounds)
		if deliverRound > 1 {
			return // a slipped first copy arrived in a strictly later round
		}
	}
	t.Fatal("no seed in 50 produced a slipped first delivery at σ = 4")
}

// ---- allocation regression (the tentpole's acceptance criterion) ----

// TestStepAllocsSteadyState pins the zero-allocation property: once an
// 8×8 broadcast reaches steady state (every tile aware and holding a live
// copy — the state Monte Carlo replicas spend their time in), Step must
// run allocation-free. The threshold 2 leaves headroom for incidental
// runtime noise; the measured value is 0.
func TestStepAllocsSteadyState(t *testing.T) {
	g := topology.NewGrid(8, 8)
	n := mustNet(t, Config{Topo: g, P: 0.5, TTL: 255, MaxRounds: 100000, Seed: 1})
	id, _ := n.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	for i := 0; i < 60; i++ {
		n.Step()
	}
	if got := n.Aware(id); got != g.Tiles() {
		t.Fatalf("steady state not reached: %d/%d tiles aware", got, g.Tiles())
	}
	if allocs := testing.AllocsPerRun(100, n.Step); allocs > 2 {
		t.Fatalf("steady-state Step allocates %v per round, want <= 2", allocs)
	}
}

// Same regression for the literal-upset path: frames are pooled and
// payloads cloned only on first store, so the hardware-faithful mode is
// allocation-free in steady state too.
func TestStepAllocsSteadyStateLiteral(t *testing.T) {
	g := topology.NewGrid(8, 8)
	n := mustNet(t, Config{
		Topo: g, P: 0.5, TTL: 255, MaxRounds: 100000, Seed: 1,
		Fault: fault.Model{PUpset: 0.1, LiteralUpsets: true},
	})
	n.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	for i := 0; i < 60; i++ {
		n.Step()
	}
	if allocs := testing.AllocsPerRun(100, n.Step); allocs > 2 {
		t.Fatalf("literal-path Step allocates %v per round, want <= 2", allocs)
	}
}

// ---- crashed-source injection contract (documented on Inject) ----

func TestInjectCrashedSourceContract(t *testing.T) {
	g := topology.NewGrid(2, 1)
	cfg := baseCfg(g, 1)
	// Exactly one dead tile, and it cannot be tile 1 — so tile 0 is dead.
	cfg.Fault = fault.Model{DeadTiles: 1, Protect: []packet.TileID{1}}
	n := mustNet(t, cfg)
	if n.Injector().TileAlive(0) {
		t.Fatal("fault setup broken: tile 0 should be dead")
	}

	id, _ := n.Inject(0, 1, 0, []byte("lost"))
	if id == 0 {
		t.Fatal("Inject returned the zero MsgID")
	}
	// The no-op still burns the ID: the next injection gets a fresh one.
	id2, _ := n.Inject(1, 0, 0, nil)
	if id2 != id+1 {
		t.Fatalf("dead-source injection did not consume its MsgID: got %d then %d", id, id2)
	}
	// The dropped message never existed as far as the network can tell.
	if got := n.Aware(id); got != 0 {
		t.Fatalf("Aware(%d) = %d for a dead-source injection, want 0", id, got)
	}
	if n.AwareAt(id, 0) || n.AwareAt(id, 1) {
		t.Fatal("a tile claims awareness of a message a dead tile injected")
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	if got := n.Aware(id); got != 0 {
		t.Fatalf("dead-source message spread: Aware = %d", got)
	}
}

// ---- decoded-ID hardening on the literal path ----

// TestGhostIDRejectedAsUpset feeds a tile a well-formed frame whose
// message ID was never issued by this network (the observable signature
// of a CRC escape). The engine must discard it as a detected upset
// instead of growing its flat tables around the ghost.
func TestGhostIDRejectedAsUpset(t *testing.T) {
	g := topology.NewGrid(2, 1)
	cfg := baseCfg(g, 0) // no organic traffic
	cfg.Fault = fault.Model{LiteralUpsets: true}
	var events []Event
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	n := mustNet(t, cfg)

	ghost := &packet.Packet{ID: 99, Src: 0, Dst: 1, TTL: 30}
	frame, err := packet.Encode(ghost)
	if err != nil {
		t.Fatal(err)
	}
	n.hotOf(&n.tiles[1]).ring.schedule(0, 1, arrival{frame: frame}, n.slots.initLen)
	n.rebuildOccupancy() // white-box ring injection bypasses the occupancy upkeep
	n.Step()

	c := n.Counters()
	if c.UpsetsDetected != 1 {
		t.Fatalf("UpsetsDetected = %d, want 1 (ghost ID)", c.UpsetsDetected)
	}
	if c.Deliveries != 0 || len(bufOf(&n.tiles[1])) != 0 {
		t.Fatal("ghost-ID frame was accepted")
	}
	if n.issuedSlots() != 0 {
		t.Fatalf("message table grew to %d slots on a ghost ID", n.issuedSlots())
	}
	found := false
	for _, ev := range events {
		if ev.Kind == EvUpset && ev.Tile == 1 && ev.Msg == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no EvUpset(Msg=0) emitted for the ghost frame; events: %+v", events)
	}
}

// ---- incremental aware-count consistency ----

// TestAwareMatchesScan cross-checks the O(1) incremental Aware count
// against a brute-force AwareAt scan, every round of a mixed
// broadcast/unicast run with TTL expiry, dedup and spread-stop all in
// play.
func TestAwareMatchesScan(t *testing.T) {
	g := topology.NewGrid(4, 4)
	cfg := baseCfg(g, 0.4)
	cfg.TTL = 6 // short TTL so copies expire mid-test and counts go down
	cfg.StopSpreadOnDelivery = true
	cfg.MaxRounds = 300
	n := mustNet(t, cfg)

	var ids []packet.MsgID
	check := func(round int) {
		for _, id := range ids {
			scan := 0
			for tl := 0; tl < g.Tiles(); tl++ {
				if n.AwareAt(id, packet.TileID(tl)) {
					scan++
				}
			}
			if got := n.Aware(id); got != scan {
				t.Fatalf("round %d msg %d: incremental Aware = %d, scan = %d",
					round, id, got, scan)
			}
		}
	}

	for round := 0; round < 40; round++ {
		switch round {
		case 0:
			ids = append(ids, mustInject(t, n, 0, packet.Broadcast, 0, nil))
		case 3:
			ids = append(ids, mustInject(t, n, 5, g.ID(3, 3), 0, []byte("u")))
		case 7:
			ids = append(ids, mustInject(t, n, 15, g.ID(0, 0), 0, nil))
			ids = append(ids, mustInject(t, n, 2, packet.Broadcast, 0, nil))
		}
		n.Step()
		check(round)
	}
	// After the drain every count must still agree, and the gossip must
	// have spread beyond the injection points (the counts are not stuck).
	n.Drain(cfg.MaxRounds)
	check(-1)
	if got := n.Aware(ids[0]); got < 2 {
		t.Fatalf("broadcast reached only %d tiles", got)
	}
}
