package core

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// This file pins what Reset and construction by value promise beyond the
// variant table's reset row (TestResetMatchesNew): the allocations New,
// Reseed and Reset make, and the cached config digest.

// TestNewAllocsIndependentOfSize pins construction by value: New makes
// the same number of allocations at 8×8 and at 64×64, so no per-tile
// object (a split stream, a ring, a buffer) is allocated up front.
func TestNewAllocsIndependentOfSize(t *testing.T) {
	allocs := func(side int) float64 {
		cfg := Config{Topo: topology.NewGrid(side, side), P: 0.5, TTL: 16, Seed: 3}
		return testing.AllocsPerRun(10, func() { mustNet(t, cfg) })
	}
	if small, large := allocs(8), allocs(64); small != large {
		t.Fatalf("New allocates %v times at 8x8 but %v at 64x64: construction pays per tile", small, large)
	}
}

// TestReseedAllocatesNothing pins the by-value tile streams of Reseed.
func TestReseedAllocatesNothing(t *testing.T) {
	n := mustNet(t, Config{Topo: topology.NewGrid(16, 16), P: 0.5, TTL: 16, Seed: 3})
	seed := uint64(0)
	if allocs := testing.AllocsPerRun(10, func() { seed++; n.Reseed(seed) }); allocs != 0 {
		t.Fatalf("Reseed allocates %v times, want 0", allocs)
	}
}

// TestResetAllocatesNothingWhenWarm pins Reset on a warm network of the
// same size — one that has been Reset before and has run since, and is
// interrupted mid-spread with copies buffered and in flight: the Reset
// allocates nothing. The engine's storage, the injector and every tile
// stream are reused.
func TestResetAllocatesNothingWhenWarm(t *testing.T) {
	cfg := Config{
		Topo: topology.NewGrid(16, 16), P: 0.5, TTL: 16, Seed: 3,
		Fault: fault.Model{PUpset: 0.1, POverflow: 0.05, SigmaSync: 0.5},
	}
	reset := func(n *Network) {
		if err := n.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	}
	run := func(n *Network) {
		mustInject(t, n, 136, packet.Broadcast, 0, nil)
		for range 10 {
			n.Step()
		}
		if n.Quiescent() {
			t.Fatal("the run drained: Reset has nothing in flight to release")
		}
	}
	const runs = 20
	nets := make([]*Network, runs+1) // AllocsPerRun calls once more to warm up
	for i := range nets {
		nets[i] = mustNet(t, cfg)
		run(nets[i])
		reset(nets[i])
		run(nets[i])
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		reset(nets[next])
		next++
	})
	if allocs != 0 {
		t.Fatalf("Reset of a warm network allocates %v times, want 0", allocs)
	}
}

// TestConfigDigestCached pins the digest a network caches for its
// snapshots: after New, Restore and Reset it is ConfigDigest of the
// network's config, and a Reset to another seed recomputes it.
func TestConfigDigestCached(t *testing.T) {
	cfg := Config{Topo: topology.NewGrid(8, 8), P: 0.5, TTL: 16, MaxRounds: 50, Seed: 3}
	check := func(when string, n *Network, cfg Config) {
		t.Helper()
		if got, want := n.configDigest(), ConfigDigest(&cfg); got != want {
			t.Fatalf("after %s: cached digest %08x, ConfigDigest %08x", when, got, want)
		}
	}
	n := mustNet(t, cfg)
	check("New", n, cfg)
	mustInject(t, n, 0, packet.Broadcast, 0, nil)
	n.Step()
	restored, err := Restore(bytes.NewReader(snapshotBytes(t, n)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("Restore", restored, cfg)
	cfg.Seed = 4
	if err := restored.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	check("Reset to another seed", restored, cfg)
}

// TestResetReturnsEverySlot: Reset finds the hot slots by walking the
// frontier bitmaps, so it must walk both. A skewed run is interrupted
// while some tile has copies in flight toward it and none buffered (on
// rcvOcc only); after the Reset nothing may be armed, and every slot the
// run held is back in the pool, emptied.
func TestResetReturnsEverySlot(t *testing.T) {
	cfg := Config{
		Topo: topology.NewGrid(16, 16), P: 0.5, TTL: 4, Seed: 5,
		Fault: fault.Model{SigmaSync: 2},
	}
	n := mustNet(t, cfg)
	mustInject(t, n, 136, packet.Broadcast, 0, nil)
	receiving := func() bool {
		for i, w := range n.rcvOcc.bits {
			if w&^n.bufOcc.bits[i] != 0 {
				return true
			}
		}
		return false
	}
	for !receiving() {
		if n.Step(); n.Round() > 50 {
			t.Fatal("no tile ever had copies in flight and none buffered")
		}
	}
	held := n.Mem().ArmedSlots
	if err := n.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	checkPoolAccounting(t, n)
	if m := n.Mem(); m.PooledSlots < held {
		t.Fatalf("%d slots held before the Reset, %d pooled after it", held, m.PooledSlots)
	}
}
