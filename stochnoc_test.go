package stochnoc_test

import (
	"testing"

	stochnoc "repro"
)

// facadeProducer exercises the public API exactly as the README shows.
type facadeProducer struct {
	dst  stochnoc.TileID
	sent bool
}

func (p *facadeProducer) Init(*stochnoc.Ctx) {}
func (p *facadeProducer) Round(ctx *stochnoc.Ctx) {
	if !p.sent {
		ctx.Send(p.dst, 1, []byte("facade"))
		p.sent = true
	}
}

type facadeConsumer struct{ got bool }

func (c *facadeConsumer) Init(*stochnoc.Ctx)  {}
func (c *facadeConsumer) Round(*stochnoc.Ctx) {}
func (c *facadeConsumer) Done() bool          { return c.got }
func (c *facadeConsumer) Receive(ctx *stochnoc.Ctx, p *stochnoc.Packet) {
	c.got = true
}

func TestFacadeQuickstart(t *testing.T) {
	grid := stochnoc.NewGrid(4, 4)
	net, err := stochnoc.New(stochnoc.Config{
		Topo: grid, P: 0.5, TTL: stochnoc.DefaultTTL, MaxRounds: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons := &facadeConsumer{}
	net.Attach(5, &facadeProducer{dst: 11})
	net.Attach(11, cons)
	res := net.Run()
	if !res.Completed || !cons.got {
		t.Fatalf("facade quickstart failed: %+v", res)
	}
}

func TestFacadeFaultModel(t *testing.T) {
	net, err := stochnoc.New(stochnoc.Config{
		Topo: stochnoc.NewGrid(3, 3), P: 1, TTL: 8, MaxRounds: 50, Seed: 2,
		Fault: stochnoc.FaultModel{PUpset: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(0, stochnoc.Broadcast, 0, []byte("x"))
	for i := 0; i < 10; i++ {
		net.Step()
	}
	if net.Counters().UpsetsDetected == 0 {
		t.Fatal("fault model not reachable through facade")
	}
}

func TestFacadeTopologies(t *testing.T) {
	if stochnoc.NewTorus(4, 4).Tiles() != 16 {
		t.Fatal("torus")
	}
	if stochnoc.NewFullyConnected(10).Tiles() != 10 {
		t.Fatal("complete graph")
	}
	if stochnoc.NewRing(5).Tiles() != 5 {
		t.Fatal("ring")
	}
}

func TestFacadeTechnologyConstants(t *testing.T) {
	if stochnoc.NoCLink025.LinkHz != 381e6 || stochnoc.Bus025.LinkHz != 43e6 {
		t.Fatal("§4.1.4 constants wrong")
	}
}

func TestFacadeDirectedAndXY(t *testing.T) {
	grid := stochnoc.NewGrid(4, 4)
	w, err := stochnoc.GridBias(grid, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	net, err := stochnoc.New(stochnoc.Config{
		Topo: grid, P: 0.5, TTL: 16, MaxRounds: 100, Seed: 4, PortWeight: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons := stochnoc.NewConsumer(1)
	net.Attach(0, &stochnoc.Producer{Dst: 15, Count: 1})
	net.Attach(15, cons)
	if !net.Run().Completed {
		t.Fatal("directed gossip via facade failed")
	}

	xyNet, err := stochnoc.New(stochnoc.Config{
		Topo: grid, P: 0, TTL: 16, MaxRounds: 60, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stochnoc.InstallXYRouting(xyNet); err != nil {
		t.Fatal(err)
	}
	cons2 := stochnoc.NewConsumer(1)
	xyNet.Attach(0, &stochnoc.Producer{Dst: 15, Count: 1})
	xyNet.Attach(15, cons2)
	if !xyNet.Run().Completed {
		t.Fatal("XY routing via facade failed")
	}
}

func TestFacadeReliable(t *testing.T) {
	if stochnoc.NewReliableEndpoint().Outstanding() != 0 {
		t.Fatal("fresh reliable endpoint has pending messages")
	}
}
