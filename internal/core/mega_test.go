package core

// Mega-mesh memory and scale tests: the tentpole promise of the bitset /
// recycling refactor is that a 512×512 fabric runs a sustained 10k+
// message workload with per-tile memory flat at steady state, and that a
// 1024×1024 mesh at least completes rounds. The allocation-growth tests
// pin the slot-table growth behaviour (O(log m) reallocations of the
// parallel arrays) and the zero-allocation steady state of churn.

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

// TestSlotTableGrowthReallocations issues m messages on a growing table
// and counts how often each parallel array actually reallocated (its
// capacity changed). append doubles capacities, so the count must stay
// O(log m) — the regression this pins is accidental per-issue
// reallocation (the old per-tile growFlags pattern re-grown per message).
func TestSlotTableGrowthReallocations(t *testing.T) {
	const m = 1 << 14
	cfg := Config{Topo: topology.NewGrid(4, 4), P: 0, TTL: 255, MaxRounds: 10, Seed: 1}
	n := mustNet(t, cfg)

	reallocs := 0
	lastCap := cap(n.tbl.gens)
	arenaMakes := 0
	lastArena := len(n.tbl.arena)
	for i := 0; i < m; i++ {
		if _, err := n.Inject(0, packet.Broadcast, 0, nil); err != nil {
			t.Fatal(err)
		}
		if c := cap(n.tbl.gens); c != lastCap {
			reallocs++
			lastCap = c
		}
		if a := len(n.tbl.arena); a > lastArena {
			arenaMakes++
		}
		lastArena = len(n.tbl.arena)
	}
	// 2^14 messages from a starting capacity of 8: ~11 doublings. Allow
	// headroom for append's size-class rounding, not for linear growth.
	if reallocs > 20 {
		t.Fatalf("parallel arrays reallocated %d times for %d messages, want O(log m)", reallocs, m)
	}
	// Each slot carves TWO arena rows (present + seen), so a block of
	// tableArenaRows rows serves tableArenaRows/2 slots.
	if want := 2 * m / tableArenaRows; arenaMakes > want+1 {
		t.Fatalf("row arena allocated %d blocks for %d messages, want <= %d", arenaMakes, m, want+1)
	}
}

// TestChurnSteadyStateAllocs pins the zero-allocation steady state of a
// recycling churn workload: once the slot table has covered the live
// population and the free list cycles, a round of inject+step+retire
// performs no per-message heap allocation.
func TestChurnSteadyStateAllocs(t *testing.T) {
	cfg := Config{
		Topo: topology.NewGrid(16, 16), P: 0.6, TTL: 4,
		MaxRounds: 100000, Seed: 3, Recycle: true,
	}
	n := mustNet(t, cfg)
	round := 0
	churnRound := func() {
		for i := 0; i < 4; i++ {
			src := packet.TileID((round*4 + i) % 256)
			if _, err := n.Inject(src, packet.Broadcast, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
		round++
	}
	for round < 60 { // warm up: table, rings and buffers reach capacity
		churnRound()
	}
	slotsBefore := n.issuedSlots()
	avg := testing.AllocsPerRun(100, churnRound)
	if n.issuedSlots() != slotsBefore {
		t.Fatalf("slot table grew %d -> %d during steady-state churn", slotsBefore, n.issuedSlots())
	}
	// Nothing is attached, so deliveries store nothing (frontier_test.go)
	// and the measured value is 0; the headroom is for the retired-ledger
	// map growing a bucket as it accretes entries. The regression this
	// catches is per-copy, per-hop or per-delivery allocation, which shows
	// up as dozens per round.
	if avg > 2 {
		t.Fatalf("steady-state churn round allocates %.1f times, want <= 2", avg)
	}
}

// megaChurn drives a side×side recycling mesh with perRound fresh
// broadcasts per round for the given number of rounds, returning the
// network for inspection.
func megaChurn(tb testing.TB, side, perRound, rounds int) *Network {
	tb.Helper()
	g := topology.NewGrid(side, side)
	cfg := Config{
		Topo: g, P: 0.5, TTL: 16, MaxRounds: 1 << 30, Seed: 0xE5CA1A,
		Recycle: true,
	}
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tiles := side * side
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			src := packet.TileID((int64(round*perRound)*2654435761 + int64(i*40503)) % int64(tiles))
			if _, err := n.Inject(src, packet.Broadcast, 0, nil); err != nil {
				tb.Fatal(err)
			}
		}
		n.Step()
	}
	return n
}

// TestMegaMesh512Churn is the tentpole acceptance test: a 512×512 fabric
// under sustained injection. The slot table must be bounded by the live
// population (flat once warm), not by the number of messages issued, and
// the bytes-per-tile figure must hold steady between the half-way point
// and the end of the run.
func TestMegaMesh512Churn(t *testing.T) {
	if testing.Short() {
		t.Skip("mega-mesh churn is seconds of work; skipped under -short")
	}
	const side, perRound = 512, 8
	n := megaChurn(t, side, perRound, 60)
	mid := n.Mem()
	// Continue the same workload: the table must not grow further.
	tiles := side * side
	for round := 60; round < 120; round++ {
		for i := 0; i < perRound; i++ {
			src := packet.TileID((int64(round*perRound)*2654435761 + int64(i*40503)) % int64(tiles))
			if _, err := n.Inject(src, packet.Broadcast, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
	}
	end := n.Mem()
	if end.Slots > mid.Slots {
		t.Fatalf("slot table grew %d -> %d between rounds 60 and 120 of steady churn", mid.Slots, end.Slots)
	}
	if retired := n.Counters().Retired; retired < 200 {
		t.Fatalf("only %d messages retired over 120 churn rounds", retired)
	}
	perTile := float64(end.TableBytes) / float64(tiles)
	// One slot's bitmap pair costs 2 rows × 4096 words × 8 B = 64 KiB,
	// i.e. 0.25 B/tile. The live population is ~perRound × (TTL+1) ≈ 136
	// slots (~34 B/tile); a dense table for the 960 messages issued would
	// cost 960 × 64 KiB ≈ 60 MB ≈ 235 B/tile. Allow modest headroom over
	// the live population, far under the dense cost.
	if perTile > 48 {
		t.Fatalf("message table costs %.1f B/tile at steady state, want < 48", perTile)
	}
}

// TestFabricBytes512 pins the fixed state a 512×512 mesh pays for every
// tile, busy or idle — the tile array and the port table, as
// MemStats.FabricBytes reports them — at no more than 76 bytes a tile:
// a 56-byte tile (TestTileStaysSlim) plus ~16 bytes of ports.
func TestFabricBytes512(t *testing.T) {
	const side = 512
	n := mustNet(t, Config{Topo: topology.NewGrid(side, side), P: 0.5, TTL: 16, Seed: 1})
	if perTile := float64(n.Mem().FabricBytes) / (side * side); perTile > 76 {
		t.Errorf("fixed fabric state costs %.2f B/tile at 512×512, want <= 76", perTile)
	}
}

// TestMegaMesh1024Smoke steps a million-tile fabric a few rounds — the
// existence proof that nothing in the engine is quadratic in tiles or
// sized by ever-issued messages.
func TestMegaMesh1024Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-tile smoke run; skipped under -short")
	}
	n := megaChurn(t, 1024, 4, 8)
	if n.Round() != 8 {
		t.Fatalf("round = %d, want 8", n.Round())
	}
	m := n.Mem()
	if m.Slots != 32 {
		t.Fatalf("slot table holds %d slots for 32 issued messages", m.Slots)
	}
	// 32 slots × 2 rows × 16384 words × 8 B = 8 MiB — exactly 8 B/tile;
	// bound just above that so padding changes surface but the design
	// point passes.
	if perTile := float64(m.TableBytes) / float64(1024*1024); perTile > 8.5 {
		t.Fatalf("message table costs %.1f B/tile on the megamesh, want <= 8.5", perTile)
	}
}
