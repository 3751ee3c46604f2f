package core

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

// presentImpliesSeen checks the precondition sender-side duplicate
// elision (transmit) rests on: a tile that buffers message m and is
// addressed by m has m's seen bit set, so deliver is a no-op for every
// later copy of m there. Round barriers only.
func presentImpliesSeen(n *Network) error {
	for i := range n.tiles {
		t := &n.tiles[i]
		buf := bufOf(t)
		for j := range buf {
			p := &buf[j]
			if (p.Dst == t.id || p.Dst == packet.Broadcast) && !rowBit(n.tbl.seen[msgSlot(p.ID)], t.id) {
				return fmt.Errorf("round %d: tile %d buffers message %#x, which addresses it, but has not seen it",
					n.round, t.id, p.ID)
			}
		}
	}
	return nil
}

// TestPresentImpliesSeenCatchesPlant plants the bug the helper exists to
// catch: an Inject that buffers its message at the source (setPresent)
// without marking it seen there.
func TestPresentImpliesSeenCatchesPlant(t *testing.T) {
	n := mustNet(t, Config{Topo: topology.NewGrid(4, 4), P: 0.5, TTL: 4, MaxRounds: 10, Seed: 1})
	mustInject(t, n, 3, packet.Broadcast, 0, nil)
	if err := presentImpliesSeen(n); err != nil {
		t.Fatalf("a correct Inject trips the check: %v", err)
	}
	const src = 5
	id := n.newMsgID()
	n.enqueue(&n.tiles[src], &packet.Packet{ID: id, Src: src, Dst: packet.Broadcast, TTL: 4})
	if err := presentImpliesSeen(n); err == nil {
		t.Fatal("a message buffered at its source without its seen bit passed the check")
	}
}

// presentIsOneCopy checks the invariant enqueue keeps and Restore
// enforces: tile t's present bit for message m is set exactly when t's
// send buffer holds one copy of m — never two, never none. With
// recycling on, each slot's copy count must also equal its present bits.
// Round barriers only.
func presentIsOneCopy(n *Network) error {
	copies := make([]int, len(n.tbl.gens))
	for i := range n.tiles {
		t := &n.tiles[i]
		buf := bufOf(t)
		for j := range buf {
			p := &buf[j]
			s := msgSlot(p.ID)
			if !rowBit(n.tbl.present[s], t.id) {
				return fmt.Errorf("round %d: tile %d buffers message %#x without its present bit", n.round, t.id, p.ID)
			}
			for k := range j {
				if buf[k].ID == p.ID {
					return fmt.Errorf("round %d: tile %d buffers message %#x twice", n.round, t.id, p.ID)
				}
			}
			copies[s]++
		}
	}
	for s := 1; s < len(copies); s++ {
		present := 0
		for _, w := range n.tbl.present[s] {
			present += bits.OnesCount64(w)
		}
		if present != copies[s] {
			return fmt.Errorf("round %d: slot %d present at %d tiles, buffered at %d", n.round, s, present, copies[s])
		}
		if n.recycle && int(n.tbl.copies[s]) != copies[s] {
			return fmt.Errorf("round %d: slot %d copy count %d, buffered at %d", n.round, s, n.tbl.copies[s], copies[s])
		}
	}
	return nil
}

// TestPresentIsOneCopyCatchesPlants plants the two ways the invariant can
// break: an enqueue that skips the dedup check (a second copy behind one
// present bit) and an expiry that drops a copy without clearing its bit.
func TestPresentIsOneCopyCatchesPlants(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		build := func() *Network {
			n := mustNet(t, Config{Topo: topology.NewGrid(4, 4), P: 0.5, TTL: 4, MaxRounds: 10, Seed: 1, Recycle: recycle})
			mustInject(t, n, 3, packet.Broadcast, 0, nil)
			n.Step()
			if err := presentIsOneCopy(n); err != nil {
				t.Fatalf("recycle=%v: a correct run trips the check: %v", recycle, err)
			}
			return n
		}
		n := build()
		src := n.tiles[3].hot
		src.buf = append(src.buf, src.buf[0])
		if err := presentIsOneCopy(n); err == nil {
			t.Errorf("recycle=%v: a tile buffering a message twice passed the check", recycle)
		}
		n = build()
		src = n.tiles[3].hot
		src.buf = src.buf[:0]
		if err := presentIsOneCopy(n); err == nil {
			t.Errorf("recycle=%v: a present bit without a buffered copy passed the check", recycle)
		}
	}
}

// onTimeUpsets reports whether some round's transmissions, read from the
// counters at its barriers, must have included an upset copy that arrived
// on time: more upsets than slipped copies in one round. A lower bound —
// a round can settle an upset and still slip more copies than it upsets.
func onTimeUpsets(barriers []barrierRec) bool {
	var prev Counters
	for _, b := range barriers {
		c := b.cnt
		if c.UpsetsInjected-prev.UpsetsInjected > c.SlippedDeliveries-prev.SlippedDeliveries {
			return true
		}
		prev = c
	}
	return false
}

// elisionCases are the configurations that sit next to the settlement
// gates: each keeps duplicate elision off through exactly one gate term
// (or through the slip and upset tests in transmit), and the upset cases
// sit next to the upset settlement's slip and analytic-path terms, on
// traffic dense enough that a copy wrongly settled at the sender changes
// the record.
func elisionCases() []scenario {
	dense := func(name string, mod func(*Config), inject ...injection) scenario {
		return scenario{
			name: "elide-" + name,
			cfg: func() Config {
				cfg := Config{Topo: topology.NewGrid(16, 8), P: 0.6, TTL: 14, MaxRounds: 1000, Seed: 0xe1}
				mod(&cfg)
				return cfg
			},
			inject: inject,
			rounds: 30,
		}
	}
	bcast := []injection{
		{beforeRound: 0, src: 0, dst: packet.Broadcast, payload: "a"},
		{beforeRound: 0, src: 64, dst: packet.Broadcast, payload: "b"},
		{beforeRound: 2, src: 127, dst: packet.Broadcast},
	}
	return []scenario{
		// A delivered unicast is tombstoned mid-phase 4; its later copies
		// that round must be dropped uncounted, not counted as duplicates.
		dense("stop-spread", func(c *Config) { c.StopSpreadOnDelivery = true; c.P = 0.9 },
			injection{beforeRound: 0, src: 0, dst: 36, kind: 1},
			injection{beforeRound: 0, src: 127, dst: 94, kind: 1},
			injection{beforeRound: 3, src: 64, dst: 19, kind: 1}),
		// Every reception draws the overflow loss from the receiver's
		// stream.
		dense("overflow", func(c *Config) { c.Fault.POverflow = 0.1 }, bcast...),
		// A slipped copy lands in a later round, when the far end may have
		// dropped the message.
		dense("sync-skew", func(c *Config) { c.Fault.SigmaSync = 1.2; c.TTL = 6 }, bcast...),
		// An upset copy is a detected CRC failure at the far end, with its
		// own event: never elided as a duplicate, and settled at the
		// sender only when no listener would see that event.
		dense("upsets", func(c *Config) { c.Fault.PUpset = 0.2 }, bcast...),
		// A slipped upset lands in a later round: it stays on the ring
		// path, so it is detected (and counted) when it arrives.
		dense("upsets-skew", func(c *Config) { c.Fault.PUpset = 0.2; c.Fault.SigmaSync = 1.2; c.TTL = 6 }, bcast...),
		// Wire frames: elision stays on the analytic path.
		dense("literal", func(c *Config) { c.Fault.LiteralUpsets = true; c.Fault.PUpset = 0.2 }, bcast...),
	}
}
