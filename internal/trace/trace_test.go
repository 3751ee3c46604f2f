package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// traced runs a single unicast under the collector.
func traced(t *testing.T, cfg core.Config) (*Collector, packet.MsgID) {
	t.Helper()
	col := &Collector{}
	cfg.OnEvent = col.Hook()
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := net.Inject(0, 15, 1, []byte("trace"))
	net.Drain(200)
	return col, id
}

// countByKind tallies the collected events per kind.
func countByKind(col *Collector) map[core.EventKind]int {
	out := map[core.EventKind]int{}
	for _, ev := range col.events {
		out[ev.Kind]++
	}
	return out
}

// deliveredTo reports whether the collected events deliver id at tile.
func deliveredTo(col *Collector, id packet.MsgID, tile packet.TileID) bool {
	for _, ev := range col.Of(id) {
		if ev.Kind == core.EvDeliver && ev.Tile == tile {
			return true
		}
	}
	return false
}

func TestLifecycleEventsPresent(t *testing.T) {
	col, id := traced(t, core.Config{
		Topo: topology.NewGrid(4, 4), P: 1, TTL: 10, MaxRounds: 100, Seed: 1,
	})
	evs := col.Of(id)
	if len(evs) == 0 {
		t.Fatal("no events for the message")
	}
	if evs[0].Kind != core.EvCreated {
		t.Fatalf("first event = %v, want created", evs[0].Kind)
	}
	counts := countByKind(col)
	for _, k := range []core.EventKind{core.EvCreated, core.EvTransmit, core.EvDeliver, core.EvExpire} {
		if counts[k] == 0 {
			t.Fatalf("no %v events", k)
		}
	}
	if !deliveredTo(col, id, 15) {
		t.Fatal("no delivery at tile 15")
	}
	if deliveredTo(col, id, 3) {
		t.Fatal("a delivery at an unaddressed tile")
	}
}

func TestInvariantsCleanRun(t *testing.T) {
	col, _ := traced(t, core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 12, MaxRounds: 100, Seed: 2,
	})
	if v := col.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

func TestInvariantsUnderFaults(t *testing.T) {
	col, _ := traced(t, core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.75, TTL: 12, MaxRounds: 150, Seed: 3,
		Fault: fault.Model{PUpset: 0.3, POverflow: 0.2, SigmaSync: 0.5,
			DeadTiles: 2, Protect: []packet.TileID{0, 15}},
	})
	if v := col.CheckInvariants(); len(v) != 0 {
		t.Fatalf("invariant violations under faults: %v", v)
	}
	if countByKind(col)[core.EvUpset] == 0 {
		t.Fatal("no upset events recorded")
	}
}

// TestRoundActivityProfile checks that the collector records events in
// round order, so a per-round activity profile reads straight off it.
func TestRoundActivityProfile(t *testing.T) {
	col, _ := traced(t, core.Config{
		Topo: topology.NewGrid(4, 4), P: 1, TTL: 8, MaxRounds: 60, Seed: 5,
	})
	var act [][2]int // (round, transmissions)
	for _, ev := range col.events {
		if ev.Kind != core.EvTransmit {
			continue
		}
		if n := len(act); n > 0 && act[n-1][0] == ev.Round {
			act[n-1][1]++
			continue
		}
		act = append(act, [2]int{ev.Round, 1})
	}
	if len(act) == 0 {
		t.Fatal("no activity profile")
	}
	for i := 1; i < len(act); i++ {
		if act[i][0] <= act[i-1][0] {
			t.Fatal("rounds not strictly increasing")
		}
	}
	for i := 1; i < len(col.events); i++ {
		if col.events[i].Round < col.events[i-1].Round {
			t.Fatalf("event %d in round %d after round %d", i, col.events[i].Round, col.events[i-1].Round)
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	col, id := traced(t, core.Config{
		Topo: topology.NewGrid(2, 2), P: 1, TTL: 5, MaxRounds: 30, Seed: 4,
	})
	tl := col.Timeline(id)
	for _, want := range []string{"message 1:", "created", "transmit", "expire"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestCapTruncates(t *testing.T) {
	col := &Collector{Cap: 10}
	cfg := core.Config{
		Topo: topology.NewGrid(4, 4), P: 1, TTL: 10, MaxRounds: 60, Seed: 6,
		OnEvent: col.Hook(),
	}
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(0, packet.Broadcast, 0, nil)
	net.Drain(100)
	if len(col.events) != 10 || !col.Truncated {
		t.Fatalf("cap not enforced: len=%d truncated=%v", len(col.events), col.Truncated)
	}
}

// Sweep several fault mixes and seeds: the lifecycle invariants must hold
// everywhere — this is a fuzz of the engine itself.
func TestInvariantsFuzz(t *testing.T) {
	models := []fault.Model{
		{},
		{PUpset: 0.5},
		{POverflow: 0.5},
		{SigmaSync: 1.5},
		{PUpset: 0.4, POverflow: 0.3, SigmaSync: 1, LiteralUpsets: true},
	}
	for mi, m := range models {
		for seed := uint64(0); seed < 5; seed++ {
			m.Protect = []packet.TileID{0, 15}
			col, _ := traced(t, core.Config{
				Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 10, MaxRounds: 120,
				Seed: seed, Fault: m,
			})
			if v := col.CheckInvariants(); len(v) != 0 {
				t.Fatalf("model %d seed %d: %v", mi, seed, v)
			}
		}
	}
}
