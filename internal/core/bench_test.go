package core

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// stepNet builds an 8x8 broadcast network in the steady state the engine
// spends most of its time in: every tile is aware of the message and holds
// a live copy, so each round is pure forwarding + duplicate-suppressed
// reception, with no application logic attached. TTL 255 keeps the copies
// alive for the whole measurement window.
func stepNet(tb testing.TB, cfg Config) *Network {
	tb.Helper()
	g := topology.NewGrid(8, 8)
	cfg.Topo = g
	cfg.TTL = steadyTTL
	cfg.MaxRounds = 100000
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	n.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	// Warm up past the spread transient so every tile holds a copy and
	// internal buffers have reached their steady capacity.
	for i := 0; i < 60; i++ {
		n.Step()
	}
	return n
}

// steadyTTL is the lifetime of the single broadcast the steady-state
// fixtures (stepNet, scaleNet) measure on — the longest a uint8 TTL
// allows. steadyUntil is the round at which a benchmark must rebuild its
// fixture: the broadcast dies at round steadyTTL everywhere at once, and
// the last rounds before that are kept out of the measurement.
const (
	steadyTTL   = 255
	steadyUntil = steadyTTL - 25
)

// scaleNet is the large-mesh fixture of the dense-grid benchmarks: a
// side×side grid with a *center* broadcast (a corner broadcast would need
// ~2× the rounds to cover the mesh, eating into the TTL-bounded
// measurement window), warmed up until every tile holds a live copy.
func scaleNet(tb testing.TB, side int, cfg Config) *Network {
	tb.Helper()
	// A p=0.5 center broadcast reaches the whole mesh in a little over
	// side rounds (~0.8 hops/round over side/2..side hops); side+30
	// rounds leave a wide steady-state window before the TTL guillotine —
	// up to side ≈ 200, past which no window is left and a caller's
	// rebuild-at-steadyUntil loop would rebuild forever.
	warm := side + 30
	if warm >= steadyUntil {
		tb.Fatalf("scaleNet: a %d×%d mesh needs %d warm-up rounds, the TTL-%d window closes at round %d",
			side, side, warm, steadyTTL, steadyUntil)
	}
	g := topology.NewGrid(side, side)
	cfg.Topo = g
	cfg.TTL = steadyTTL
	cfg.MaxRounds = 100000
	n, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	n.Inject(g.ID(side/2, side/2), packet.Broadcast, 0, make([]byte, 16))
	for i := 0; i < warm; i++ {
		n.Step()
	}
	return n
}

// BenchmarkStepGrid8x8 is the engine hot-loop microbench: one Step of an
// 8x8 grid in broadcast steady state. This is the kernel every Monte Carlo
// replica spends its time in; run with -benchmem to see the allocation
// profile the zero-allocation refactor targets.
func BenchmarkStepGrid8x8(b *testing.B) {
	n := stepNet(b, Config{P: 0.5, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.round >= steadyUntil {
			// The broadcast dies when its TTL runs out; restart the
			// steady state outside the timer.
			b.StopTimer()
			n = stepNet(b, Config{P: 0.5, Seed: 1})
			b.StartTimer()
		}
		n.Step()
	}
}

// BenchmarkStepGrid8x8Sync is the same kernel under synchronization slip,
// exercising the multi-round arrival scheduling path.
func BenchmarkStepGrid8x8Sync(b *testing.B) {
	n := stepNet(b, Config{P: 0.5, Seed: 1, Fault: fault.Model{SigmaSync: 1.5}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.round >= steadyUntil {
			b.StopTimer()
			n = stepNet(b, Config{P: 0.5, Seed: 1, Fault: fault.Model{SigmaSync: 1.5}})
			b.StartTimer()
		}
		n.Step()
	}
}

// benchStepGrid measures one Step of a side×side grid in broadcast
// steady state.
func benchStepGrid(b *testing.B, side int) {
	cfg := Config{P: 0.5, Seed: 1}
	n := scaleNet(b, side, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.round >= steadyUntil {
			// The broadcast dies when its TTL runs out; restart the
			// steady state outside the timer.
			b.StopTimer()
			n = scaleNet(b, side, cfg)
			b.StartTimer()
		}
		n.Step()
	}
}

// BenchmarkStepGrid32x32, 64x64 and 128x128 are the dense kernels on
// 1024-, 4096- and 16384-tile meshes: a round's cost should grow linearly
// with the tiles holding a live copy.
func BenchmarkStepGrid32x32(b *testing.B) { benchStepGrid(b, 32) }

func BenchmarkStepGrid64x64(b *testing.B) { benchStepGrid(b, 64) }

func BenchmarkStepGrid128x128(b *testing.B) { benchStepGrid(b, 128) }

// benchChurn measures one inject+Step round of a side×side recycling mesh
// under sustained unicast churn — the mega-mesh workload of the memory
// refactor. Unlike the broadcast fixtures above, the live message
// population turns over every TTL rounds, so this kernel exercises slot
// retirement, free-list reuse and the bitset row clears alongside
// forwarding. B/op is the metric to watch: at steady state the table is
// warm and a round should allocate only delivery mailbox entries and
// retired-ledger accretion, independent of mesh size.
func benchChurn(b *testing.B, side, perRound int) {
	g := topology.NewGrid(side, side)
	cfg := Config{
		Topo: g, P: 0.5, TTL: 8, MaxRounds: 1 << 30, Seed: 0xE5CA1A,
		Recycle: true,
	}
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tiles := side * side
	round := 0
	churnRound := func() {
		for i := 0; i < perRound; i++ {
			src := packet.TileID((int64(round*perRound)*2654435761 + int64(i*40503)) % int64(tiles))
			if _, err := n.Inject(src, src^1, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		n.Step()
		round++
	}
	for round < 30 { // warm up: slot table and rings reach steady capacity
		churnRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnRound()
	}
}

// BenchmarkStepGrid256x256 is the 65536-tile churn kernel.
func BenchmarkStepGrid256x256(b *testing.B) {
	benchChurn(b, 256, 8)
}

// BenchmarkStepGrid512x512 is the 262144-tile churn kernel.
func BenchmarkStepGrid512x512(b *testing.B) {
	benchChurn(b, 512, 8)
}

// benchDenseBroadcast measures one inject+Step round of a 64×64 mesh
// saturated with low-p broadcast traffic — the draw-dominated workload
// the batch kernel (Config.BatchDraws) exists for. Every round injects
// perRound fresh broadcasts; with TTL 192 the steady state holds ~37k
// live copies, so phase 3 faces ~150k Bernoulli(0.001) trials per
// round of which only a couple hundred fire. The default kernel pays
// one draw per trial; the batch kernel geometric-skips straight to the
// successes.
func benchDenseBroadcast(b *testing.B, batch bool) {
	const side, perRound = 64, 192
	g := topology.NewGrid(side, side)
	cfg := Config{
		Topo: g, P: 0.001, TTL: 192, MaxRounds: 1 << 30, Seed: 0xDE45E,
		Recycle: true, BatchDraws: batch,
	}
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tiles := side * side
	round := 0
	denseRound := func() {
		for i := 0; i < perRound; i++ {
			src := packet.TileID((int64(round*perRound)*2654435761 + int64(i*40503)) % int64(tiles))
			if _, err := n.Inject(src, packet.Broadcast, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		n.Step()
		round++
	}
	// Warm up well past TTL so the slot pool, free list and rings reach
	// their steady sizes and no measured round grows the tables.
	for round < 400 {
		denseRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		denseRound()
	}
}

// BenchmarkStepGrid64x64DenseBcast is the default-kernel baseline of the
// dense-broadcast workload.
func BenchmarkStepGrid64x64DenseBcast(b *testing.B) {
	benchDenseBroadcast(b, false)
}

// BenchmarkStepGrid64x64DenseBcastBatch is the same workload under the
// batch forwarding kernel — the ≥2× acceptance target of the kernel.
func BenchmarkStepGrid64x64DenseBcastBatch(b *testing.B) {
	benchDenseBroadcast(b, true)
}

// activeTiles counts the tiles currently on the engine's frontier (send
// buffer or arrival ring non-empty) — the quantity the frontier
// scheduler makes each round's cost proportional to.
func activeTiles(n *Network) int {
	c := 0
	for i := range n.bufOcc.bits {
		c += bits.OnesCount64(n.bufOcc.bits[i] | n.rcvOcc.bits[i])
	}
	return c
}

// benchSubTTL measures one inject+Step round of a side×side recycling
// mesh under sub-TTL broadcast churn: every broadcast dies TTL hops from
// its source, so only a pocket of the mesh is ever active and per-round
// cost should track the active-tile count, not the mesh size — the
// workload the frontier scheduler exists for. The live population turns
// over continuously, exercising retirement and row clears. The
// steady-state active-tile count is attached to the result as the
// active_tiles metric.
func benchSubTTL(b *testing.B, side int, ttl uint8, perRound int) {
	g := topology.NewGrid(side, side)
	cfg := Config{
		Topo: g, P: 0.5, TTL: ttl, MaxRounds: 1 << 30, Seed: 0x5bb7,
		Recycle: true,
	}
	n, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tiles := side * side
	round := 0
	churnRound := func() {
		for i := 0; i < perRound; i++ {
			src := packet.TileID((int64(round*perRound)*2654435761 + int64(i*40503)) % int64(tiles))
			if _, err := n.Inject(src, packet.Broadcast, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		n.Step()
		round++
	}
	// Warm up well past TTL so the live population, slot pool and rings
	// reach their steady sizes.
	for round < int(ttl)*2+30 {
		churnRound()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churnRound()
	}
	b.StopTimer()
	b.ReportMetric(float64(activeTiles(n)), "active_tiles")
}

// BenchmarkStepGrid512x512SubTTL is the tentpole target workload: a
// 262144-tile mesh where TTL-16 broadcasts keep a few thousand tiles
// active (bench/'s mesh_sparse workload at the kernel level).
func BenchmarkStepGrid512x512SubTTL(b *testing.B) {
	benchSubTTL(b, 512, 16, 4)
}

// BenchmarkStepGrid256x256SubTTL is the same workload on the 65536-tile
// mesh.
func BenchmarkStepGrid256x256SubTTL(b *testing.B) {
	benchSubTTL(b, 256, 16, 4)
}

// BenchmarkStepGrid512x512SparsePocket is the frontier scheduler's
// limiting case: one TTL-4 broadcast per round keeps a few dozen of the
// 262144 tiles active, so nearly the entire round cost is scheduling —
// the part a mesh-proportional sweep dominates and a frontier walk
// makes O(active).
func BenchmarkStepGrid512x512SparsePocket(b *testing.B) {
	benchSubTTL(b, 512, 4, 1)
}

// BenchmarkSubTTLScaling sweeps the TTL on a fixed 64×64 mesh for the
// EXPERIMENTS.md scaling table: round cost should grow with the TTL's
// active-tile pocket while the mesh stays constant. The ttl=inf variant
// (saturated single broadcast, every tile holding a live copy — the
// scaleNet fixture, whose TTL-255 window comfortably covers this mesh)
// is the full-mesh limit the frontier engine degrades to.
func BenchmarkSubTTLScaling(b *testing.B) {
	for _, ttl := range []uint8{8, 16, 32} {
		b.Run(fmt.Sprintf("ttl=%d", ttl), func(b *testing.B) {
			benchSubTTL(b, 64, ttl, 4)
		})
	}
	b.Run("ttl=inf", func(b *testing.B) {
		cfg := Config{P: 0.5, Seed: 1}
		n := scaleNet(b, 64, cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n.round >= steadyUntil {
				b.StopTimer()
				n = scaleNet(b, 64, cfg)
				b.StartTimer()
			}
			n.Step()
		}
		b.StopTimer()
		b.ReportMetric(float64(activeTiles(n)), "active_tiles")
	})
}

// BenchmarkStepGrid8x8Literal measures the hardware-faithful path: every
// transmission is encoded to a wire frame and CRC-checked at reception.
func BenchmarkStepGrid8x8Literal(b *testing.B) {
	cfg := Config{P: 0.5, Seed: 1, Fault: fault.Model{PUpset: 0.1, LiteralUpsets: true}}
	n := stepNet(b, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.round >= steadyUntil {
			b.StopTimer()
			n = stepNet(b, cfg)
			b.StartTimer()
		}
		n.Step()
	}
}
