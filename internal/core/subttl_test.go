package core

// Sub-TTL regime tests: meshes whose diameter dwarfs the TTL, so every
// message dies long before reaching most tiles — the workload the
// frontier scheduler exists for. The differential scenarios extend the
// hooked == hook-free == snapshot-resumed contract onto meshes large
// enough that the summary-level frontier is active; the property test
// pins the bounded retired ledger directly.

import (
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

// subTTLScenarios builds the differential cases: 64×64 and 256×256
// (multi-word summary level) grids with TTL ≪ diameter, broadcast churn
// from scattered sources, and recycling on so retirement, slot reuse and
// row clears all happen on the large-mesh paths.
func subTTLScenarios() []scenario {
	inject := func(tiles, count, stride int) []injection {
		var ins []injection
		for i := 0; i < count; i++ {
			in := injection{
				beforeRound: (i * 3) % 12,
				src:         packet.TileID((i*stride + 7) % tiles),
				dst:         packet.Broadcast,
			}
			if i%3 == 0 {
				in.dst = packet.TileID((i*stride + tiles/2) % tiles)
			}
			ins = append(ins, in)
		}
		return ins
	}
	return []scenario{
		{
			// Diameter 126, TTL 10: each broadcast touches a few hundred of
			// the 4096 tiles.
			name: "subttl-64x64",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(64, 64), P: 0.9, TTL: 10,
					MaxRounds: 1000, Seed: 0x5bb0, Recycle: true,
				}
			},
			inject: inject(64*64, 10, 641),
			rounds: 30,
		},
		{
			// Diameter 510, TTL 24: a ~1200-tile spread diamond on a mesh
			// whose summary level spans 16 words.
			name: "subttl-256x256",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(256, 256), P: 1, TTL: 24,
					MaxRounds: 1000, Seed: 0xb16, Recycle: true,
				}
			},
			inject: inject(256*256, 6, 9241),
			rounds: 30,
		},
	}
}

// TestSubTTLDifferential runs each sub-TTL scenario with a listener,
// hook-free, and snapshot-resumed mid-spread, and requires the full
// observable record (compareRuns) to be identical. This is the
// settlement and resume-identity contract on the mesh sizes where the
// frontier scheduler actually engages.
func TestSubTTLDifferential(t *testing.T) {
	scenarios := subTTLScenarios()
	if testing.Short() {
		scenarios = scenarios[:1]
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := runScenario(t, sc, true)
			if want.cnt.Retired == 0 {
				t.Fatal("scenario retired nothing — sub-TTL churn is not exercising recycling")
			}
			compareRuns(t, "hook-free", want, runScenario(t, sc, false))
			// Resume at round 8: mid-spread, restoring into a hook-free
			// network.
			compareRuns(t, "snapshot-resume", want, runResumedScenario(t, sc, 8, false))
		})
	}
}

// TestRetiredLedgerBounded pins the ledger's memory bound: under churn
// that retires far more messages than the ring holds, the map and ring
// stay pinned at the cap, the survivors are exactly the most recent
// retirees (eviction is oldest-first and deterministic), and an evicted
// message answers Aware = 0 like a never-issued one.
func TestRetiredLedgerBounded(t *testing.T) {
	const ringCap = 8
	run := func() (*Network, []packet.MsgID) {
		cfg := Config{
			Topo: topology.NewGrid(8, 8), P: 0.7, TTL: 3,
			MaxRounds: 10000, Seed: 31337, Recycle: true,
		}
		n := mustNet(t, cfg)
		n.tbl.retCap = ringCap

		// Track retirement order via generation bumps, like the engine does.
		lastGen := map[uint32]uint32{}
		var retireOrder []packet.MsgID
		for round := 0; round < 120; round++ {
			for i := 0; i < 2; i++ {
				src := packet.TileID((round*2 + i*31) % 64)
				mustInject(t, n, src, packet.Broadcast, 0, nil)
			}
			n.Step()
			for s := uint32(1); s <= uint32(n.issuedSlots()); s++ {
				for g := lastGen[s]; g < n.tbl.gens[s]; g++ {
					retireOrder = append(retireOrder, packMsgID(s, g))
				}
				lastGen[s] = n.tbl.gens[s]
			}
		}
		return n, retireOrder
	}

	n, retireOrder := run()
	tb := &n.tbl
	if len(retireOrder) <= 2*ringCap {
		t.Fatalf("only %d retirements over the run; need well over %d to exercise eviction", len(retireOrder), ringCap)
	}
	if len(tb.retRing) > ringCap {
		t.Fatalf("ledger ring grew to %d entries, cap is %d", len(tb.retRing), ringCap)
	}
	if len(tb.retired) != len(tb.retRing) {
		t.Fatalf("ledger map holds %d entries, ring %d — they must stay in lockstep", len(tb.retired), len(tb.retRing))
	}

	// Survivors must be a suffix of the retirement order (zero-aware
	// retirees never enter the ledger, so walk the suffix permissively),
	// in order.
	var ringOrder []packet.MsgID
	tb.ledgerEach(func(id packet.MsgID, _ int32) { ringOrder = append(ringOrder, id) })
	j := len(ringOrder) - 1
	for i := len(retireOrder) - 1; i >= 0 && j >= 0; i-- {
		if retireOrder[i] == ringOrder[j] {
			j--
		}
	}
	if j >= 0 {
		t.Fatalf("ledger ring %v is not an ordered suffix of the retirement order", ringOrder)
	}

	// Early retirees were evicted: Aware answers 0, exactly like a
	// never-issued ID.
	inRing := map[packet.MsgID]bool{}
	for _, id := range ringOrder {
		inRing[id] = true
	}
	evictedChecked := 0
	for _, id := range retireOrder[:ringCap] {
		if inRing[id] {
			continue
		}
		if got := n.Aware(id); got != 0 {
			t.Fatalf("evicted retiree %d still answers Aware = %d", id, got)
		}
		evictedChecked++
	}
	if evictedChecked == 0 {
		t.Fatal("no early retiree was evicted — churn too light for the test to mean anything")
	}

	// Determinism: the same run evicts the same entries in the same order.
	n2, _ := run()
	var ringOrder2 []packet.MsgID
	n2.tbl.ledgerEach(func(id packet.MsgID, _ int32) { ringOrder2 = append(ringOrder2, id) })
	if !reflect.DeepEqual(ringOrder, ringOrder2) {
		t.Fatalf("ledger eviction not deterministic:\nrun1: %v\nrun2: %v", ringOrder, ringOrder2)
	}
}
