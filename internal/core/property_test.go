package core

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// TestQuickDeliveryRequiresReachability fuzzes random grids, crash sets
// and forwarding probabilities: a message must never be delivered to a
// destination that is unreachable over the surviving subgraph, and with
// flooding and a generous TTL it must always be delivered to a reachable
// one.
func TestQuickDeliveryRequiresReachability(t *testing.T) {
	f := func(seed uint64, wSel, hSel, deadSel uint8) bool {
		w, h := int(wSel%4)+2, int(hSel%4)+2
		g := topology.NewGrid(w, h)
		src, dst := packet.TileID(0), packet.TileID(g.Tiles()-1)
		dead := int(deadSel) % (g.Tiles() / 2)
		cfg := Config{
			Topo: g, P: 1, TTL: uint8(4 * (w + h)), MaxRounds: 200, Seed: seed,
			Fault: fault.Model{DeadTiles: dead, Protect: []packet.TileID{src, dst}},
		}
		n, err := New(cfg)
		if err != nil {
			return false
		}
		id, _ := n.Inject(src, dst, 1, nil)
		n.Drain(200)
		delivered := n.AwareAt(id, dst) // aware away from the source = delivered
		alive, linkAlive := n.Injector().AliveFuncs()
		reachable := topology.Reachable(g, src, dst, alive, linkAlive)
		return delivered == reachable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCountersConsistent fuzzes fault mixes: bits always equal
// transmissions × frame size; deliveries never exceed the number of
// messages; upsets detected never exceed upsets injected (analytic path).
func TestQuickCountersConsistent(t *testing.T) {
	f := func(seed uint64, pupSel, povSel uint8) bool {
		g := topology.NewGrid(4, 4)
		cfg := Config{
			Topo: g, P: 0.7, TTL: 10, MaxRounds: 100, Seed: seed,
			Fault: fault.Model{
				PUpset:    float64(pupSel%80) / 100,
				POverflow: float64(povSel%80) / 100,
			},
		}
		n, err := New(cfg)
		if err != nil {
			return false
		}
		const msgs = 3
		for i := 0; i < msgs; i++ {
			n.Inject(packet.TileID(i), packet.TileID(15-i), 1, []byte("abc"))
		}
		n.Drain(100)
		c := n.Counters()
		size := (&packet.Packet{Payload: []byte("abc")}).SizeBits()
		if c.Energy.Bits != c.Energy.Transmissions*size {
			return false
		}
		if c.Deliveries > msgs {
			return false
		}
		if c.UpsetsDetected > c.UpsetsInjected {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickAwareMonotone: the aware count of any message never decreases
// and never exceeds the tile count.
func TestQuickAwareMonotone(t *testing.T) {
	f := func(seed uint64, pSel uint8) bool {
		g := topology.NewGrid(4, 4)
		p := 0.2 + float64(pSel%80)/100
		n, err := New(Config{Topo: g, P: p, TTL: 12, MaxRounds: 60, Seed: seed})
		if err != nil {
			return false
		}
		id, _ := n.Inject(5, packet.Broadcast, 0, nil)
		prev := 0
		for i := 0; i < 40; i++ {
			n.Step()
			aware := n.Aware(id)
			if aware < prev || aware > g.Tiles() {
				return false
			}
			prev = aware
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickLiteralAnalyticAgreement: over many seeds, the literal
// bit-flip path and the analytic drop path produce statistically similar
// delivery behaviour (they are the same model up to CRC's 2^-16 escape).
func TestQuickLiteralAnalyticAgreement(t *testing.T) {
	deliveryRate := func(literal bool) float64 {
		delivered := 0
		const runs = 60
		for seed := uint64(0); seed < runs; seed++ {
			g := topology.NewGrid(4, 4)
			cfg := Config{
				Topo: g, P: 0.75, TTL: 12, MaxRounds: 80, Seed: seed,
				Fault: fault.Model{PUpset: 0.5, LiteralUpsets: literal},
			}
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id, _ := n.Inject(0, 15, 1, []byte("equivalence"))
			n.Drain(80)
			if n.AwareAt(id, 15) {
				delivered++
			}
		}
		return float64(delivered) / runs
	}
	lit, ana := deliveryRate(true), deliveryRate(false)
	if diff := lit - ana; diff < -0.2 || diff > 0.2 {
		t.Fatalf("literal (%.2f) and analytic (%.2f) upset paths diverge", lit, ana)
	}
}
