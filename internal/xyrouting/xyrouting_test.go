package xyrouting

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

func TestNextHopXThenY(t *testing.T) {
	g := topology.NewGrid(4, 4)
	// From (0,0) to (2,3): X first.
	cur := g.ID(0, 0)
	dst := g.ID(2, 3)
	var hops []packet.TileID
	for cur != dst {
		cur = NextHop(g, cur, dst)
		hops = append(hops, cur)
	}
	want := []packet.TileID{g.ID(1, 0), g.ID(2, 0), g.ID(2, 1), g.ID(2, 2), g.ID(2, 3)}
	if len(hops) != len(want) {
		t.Fatalf("path %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hop %d = %d, want %d", i, hops[i], want[i])
		}
	}
}

func TestNextHopSelf(t *testing.T) {
	g := topology.NewGrid(3, 3)
	if NextHop(g, 4, 4) != 4 {
		t.Fatal("self next-hop moved")
	}
}

// TestPathThroughLength follows NextHop from every source to every
// destination: the XY path is a shortest one, Manhattan-distance hops.
func TestPathThroughLength(t *testing.T) {
	g := topology.NewGrid(5, 5)
	for src := 0; src < g.Tiles(); src++ {
		for dst := 0; dst < g.Tiles(); dst++ {
			hops := 0
			for cur := packet.TileID(src); cur != packet.TileID(dst); cur = NextHop(g, cur, packet.TileID(dst)) {
				hops++
			}
			if want := g.Manhattan(packet.TileID(src), packet.TileID(dst)); hops != want {
				t.Fatalf("path %d->%d takes %d hops, want %d", src, dst, hops, want)
			}
		}
	}
}

type xySender struct {
	dst  packet.TileID
	sent bool
}

func (s *xySender) Init(*core.Ctx) {}
func (s *xySender) Round(ctx *core.Ctx) {
	if !s.sent {
		ctx.Send(s.dst, 1, []byte("xy"))
		s.sent = true
	}
}

type xySink struct {
	got      bool
	gotRound int
}

func (s *xySink) Init(*core.Ctx)  {}
func (s *xySink) Round(*core.Ctx) {}
func (s *xySink) Done() bool      { return s.got }
func (s *xySink) Receive(ctx *core.Ctx, _ *packet.Packet) {
	if !s.got {
		s.got = true
		s.gotRound = ctx.Round()
	}
}

func TestXYDeliversAtManhattanDistance(t *testing.T) {
	g := topology.NewGrid(4, 4)
	net, err := core.New(core.Config{Topo: g, P: 0, TTL: 20, MaxRounds: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Install(net); err != nil {
		t.Fatal(err)
	}
	sink := &xySink{}
	net.Attach(g.ID(0, 0), &xySender{dst: g.ID(3, 2)})
	net.Attach(g.ID(3, 2), sink)
	res := net.Run()
	if !res.Completed {
		t.Fatal("XY routing failed on a healthy grid")
	}
	if want := g.Manhattan(g.ID(0, 0), g.ID(3, 2)); sink.gotRound != want {
		t.Fatalf("XY delivery round %d, want %d", sink.gotRound, want)
	}
}

func TestXYMinimalTraffic(t *testing.T) {
	// XY transmits ~one copy per hop per round of lifetime — orders of
	// magnitude below gossip.
	g := topology.NewGrid(4, 4)
	net, err := core.New(core.Config{Topo: g, P: 0, TTL: 8, MaxRounds: 50, Seed: 1,
		StopSpreadOnDelivery: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Install(net); err != nil {
		t.Fatal(err)
	}
	sink := &xySink{}
	net.Attach(g.ID(0, 0), &xySender{dst: g.ID(3, 3)})
	net.Attach(g.ID(3, 3), sink)
	if !net.Run().Completed {
		t.Fatal("incomplete")
	}
	// 6 hops; each intermediate buffer retransmits its copy each round
	// until global TTL/stop kills it; with stop-on-delivery the total
	// stays within a small multiple of the hop count.
	if tx := net.Counters().Energy.Transmissions; tx > 40 {
		t.Fatalf("XY transmitted %d copies for a 6-hop route", tx)
	}
}

func TestXYFailsAcrossDeadTileOnPath(t *testing.T) {
	// Kill the single tile at (1,0): the XY route (0,0)->(3,0) dies —
	// the thesis' static-routing fragility.
	g := topology.NewGrid(4, 4)
	protect := []packet.TileID{}
	for i := 0; i < g.Tiles(); i++ {
		if packet.TileID(i) != g.ID(1, 0) {
			protect = append(protect, packet.TileID(i))
		}
	}
	net, err := core.New(core.Config{Topo: g, P: 0, TTL: 20, MaxRounds: 60, Seed: 1,
		Fault: fault.Model{DeadTiles: 1, Protect: protect}})
	if err != nil {
		t.Fatal(err)
	}
	if !net.Injector().TileAlive(g.ID(1, 0)) {
		// Good: (1,0) is the dead one.
	} else {
		t.Fatal("wrong tile crashed")
	}
	if err := Install(net); err != nil {
		t.Fatal(err)
	}
	sink := &xySink{}
	net.Attach(g.ID(0, 0), &xySender{dst: g.ID(3, 0)})
	net.Attach(g.ID(3, 0), sink)
	if net.Run().Completed {
		t.Fatal("XY routed around a dead tile on its fixed path")
	}
}

func TestGossipSurvivesSameCrash(t *testing.T) {
	// The same scenario with gossip (no routers): delivered.
	g := topology.NewGrid(4, 4)
	protect := []packet.TileID{}
	for i := 0; i < g.Tiles(); i++ {
		if packet.TileID(i) != g.ID(1, 0) {
			protect = append(protect, packet.TileID(i))
		}
	}
	net, err := core.New(core.Config{Topo: g, P: 0.75, TTL: 20, MaxRounds: 60, Seed: 1,
		Fault: fault.Model{DeadTiles: 1, Protect: protect}})
	if err != nil {
		t.Fatal(err)
	}
	sink := &xySink{}
	net.Attach(g.ID(0, 0), &xySender{dst: g.ID(3, 0)})
	net.Attach(g.ID(3, 0), sink)
	if !net.Run().Completed {
		t.Fatal("gossip failed where it should route around the crash")
	}
}

func TestInstallRejectsNonGrid(t *testing.T) {
	net, err := core.New(core.Config{Topo: topology.NewRing(6), P: 0.5, TTL: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Install(net); err != ErrNotGrid {
		t.Fatalf("err = %v, want ErrNotGrid", err)
	}
}
