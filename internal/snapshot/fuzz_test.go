package snapshot_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// FuzzRestore feeds arbitrary bytes through every checkpoint and
// result-cache decode surface. The contract under fuzzing is narrow and absolute: corrupt,
// truncated or hostile input must come back as an error — never a panic,
// never an input-controlled huge allocation. Three surfaces are
// exercised, in increasing depth:
//
//  1. the container codec (snapshot.Decode + section walk, SecResult
//     included: the cache reads its three byte strings the same way),
//  2. the full checkpoint-file reader (sim.ReadCheckpoint), whose CRC
//     turns almost all mutants into early ErrCorrupt,
//  3. the post-CRC payload decoders (core.RestoreSection and
//     metrics.RestoreState) fed the raw bytes directly — this is the
//     path the CRC cannot shield, where the bounds checks and
//     cross-field validation of the decoders themselves must hold.
//
// The seed corpus is built from REAL files (a mid-run faulty broadcast,
// a fresh network, a recorder-less checkpoint, a cache entry), so the fuzzer
// starts at the deep end of the decoders instead of spending its budget
// getting past the magic number.

// fuzzCfg is the configuration every decode attempt restores against.
// Must be deterministic and cheap: it is rebuilt for every fuzz input.
func fuzzCfg() core.Config {
	return core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 6, MaxRounds: 100, Seed: 42,
	}
}

// realCheckpoint serializes an actual mid-run simulation — in-flight
// arrivals, partial series and all — as seed-corpus material.
func realCheckpoint(tb testing.TB, rounds int, withRecorder bool) []byte {
	tb.Helper()
	cfg := fuzzCfg()
	cfg.Fault.PUpset = 0.2
	cfg.Fault.SigmaSync = 0.7
	var rec *metrics.Recorder
	if withRecorder {
		rec = metrics.NewRecorder(metrics.Config{Rounds: 64})
		rec.Install(&cfg)
	}
	net, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	id, err := net.Inject(0, packet.Broadcast, 0, []byte("fuzz seed"))
	if err != nil {
		tb.Fatal(err)
	}
	if rec != nil {
		rec.Watch(id)
	}
	for i := 0; i < rounds; i++ {
		net.Step()
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf, sim.CheckpointMeta{Replica: 1, Seed: 42}, net, rec); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// recycledCheckpoint serializes a churned recycling network: retired
// slots, a populated free list and awareness ledger, and reissued
// generations — the payload sections a non-recycling checkpoint leaves empty.
func recycledCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	cfg := fuzzCfg()
	cfg.Recycle = true
	cfg.TTL = 3
	net, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// Enough churn rounds for slots to expire, retire and be reissued
	// with bumped generations.
	for round := 0; round < 12; round++ {
		if _, err := net.Inject(packet.TileID(round%16), packet.Broadcast, 0, nil); err != nil {
			tb.Fatal(err)
		}
		net.Step()
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf, sim.CheckpointMeta{Replica: 1, Seed: 42}, net, nil); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// cacheEntry is a result-cache entry file as service.Cache.Put writes it.
func cacheEntry(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	c, err := service.OpenCache(dir)
	if err == nil {
		err = c.Put("k", []byte(`{"width":4,"height":4,"src":0,"dst":15,"p":0.6,"seed":42}`),
			[]byte(`{"round":0,"aware_tiles":{"n":1,"mean":1}}`+"\n"), service.Status{ID: "j-000001", State: service.StateDone})
	}
	raw, rerr := os.ReadFile(filepath.Join(dir, "k.res"))
	if err != nil || rerr != nil {
		tb.Fatal(err, rerr)
	}
	return raw
}

func FuzzRestore(f *testing.F) {
	f.Add(realCheckpoint(f, 4, true))  // mid-run, skewed arrivals in flight
	f.Add(realCheckpoint(f, 0, true))  // fresh network, empty series
	f.Add(realCheckpoint(f, 7, false)) // no metrics section
	f.Add(recycledCheckpoint(f))       // free list, ledger, generations
	f.Add([]byte("SNOC"))              // magic alone
	f.Add([]byte{})
	f.Add(cacheEntry(f)) // a SecResult container

	f.Fuzz(func(t *testing.T, data []byte) {
		// Surface 1: the container codec. A container that decodes must
		// also survive a full section walk.
		if dec, err := snapshot.Decode(data); err == nil {
			for _, id := range []snapshot.SectionID{snapshot.SecCore, snapshot.SecMetrics, snapshot.SecSim, snapshot.SecResult} {
				if !dec.Has(id) {
					continue
				}
				r, err := dec.Section(id)
				if err != nil {
					t.Fatalf("Has(%d) true but Section failed: %v", id, err)
				}
				for r.Err() == nil && r.Remaining() > 0 {
					_ = r.ReadBytes() // arbitrary typed walk; must stay in bounds
				}
			}
		}

		// Surface 2: the checkpoint-file reader, recorder attached.
		rec := metrics.NewRecorder(metrics.Config{Rounds: 64})
		cfg := fuzzCfg()
		rec.Install(&cfg)
		_, _, _ = sim.ReadCheckpoint(bytes.NewReader(data), cfg, rec)

		// Surface 3: raw payload decoders, no CRC shield. Errors are the
		// expected outcome; only panics and runaway allocations can fail
		// this fuzz target.
		_, _ = core.RestoreSection(snapshot.NewReader(data), fuzzCfg())
		// Same surface with recycling on: only this config reaches the
		// free-list, ledger and generation validation of the decoder.
		rcfg := fuzzCfg()
		rcfg.Recycle = true
		rcfg.TTL = 3
		_, _ = core.RestoreSection(snapshot.NewReader(data), rcfg)
		rec2 := metrics.NewRecorder(metrics.Config{Rounds: 64})
		_ = rec2.RestoreState(snapshot.NewReader(data))
	})
}
