package sim

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/topology"
)

// ckptFixture runs a small instrumented broadcast to round k and returns
// the network, its recorder, and the replica identity.
func ckptFixture(t *testing.T, k int) (*core.Network, *metrics.Recorder, CheckpointMeta, core.Config) {
	t.Helper()
	rec := metrics.NewRecorder(metrics.Config{Rounds: 64})
	base := core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 8, MaxRounds: 100, Seed: 77,
	}
	cfg := base
	rec.Install(&cfg)
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := net.Inject(0, packet.Broadcast, 0, []byte("ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	rec.Watch(id)
	for i := 0; i < k; i++ {
		net.Step()
	}
	// The returned config is the hook-free base: resume-side callers
	// install their own recorder, not a chain including the original's.
	return net, rec, CheckpointMeta{Replica: 3, Seed: 77}, base
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	net, rec, meta, cfg := ckptFixture(t, 5)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, meta, net, rec); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	rec2 := metrics.NewRecorder(metrics.Config{Rounds: 64})
	cfg2 := cfg
	rec2.Install(&cfg2)
	net2, meta2, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), cfg2, rec2)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if meta2 != meta {
		t.Fatalf("meta = %+v, want %+v", meta2, meta)
	}
	if net2.Round() != net.Round() || net2.Counters() != net.Counters() {
		t.Fatal("engine state did not round-trip through the checkpoint file")
	}

	// Both sides finish the run; the final series must agree exactly.
	for !net.Quiescent() {
		net.Step()
	}
	for !net2.Quiescent() {
		net2.Step()
	}
	a, b := rec.Series(), rec2.Series()
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds %d != %d", a.Rounds, b.Rounds)
	}
	for i := range a.Ints {
		for r := range a.Ints[i] {
			if a.Ints[i][r] != b.Ints[i][r] {
				t.Fatalf("int series %d diverged at round %d: %d != %d", i, r, a.Ints[i][r], b.Ints[i][r])
			}
		}
	}
}

func TestReadCheckpointRejectsMissingMetrics(t *testing.T) {
	net, _, meta, cfg := ckptFixture(t, 3)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, meta, net, nil); err != nil { // no recorder
		t.Fatal(err)
	}
	rec := metrics.NewRecorder(metrics.Config{Rounds: 64})
	if _, _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), cfg, rec); err == nil {
		t.Fatal("recorder-less checkpoint satisfied a non-nil recorder")
	}
	// Without a recorder it reads fine.
	if _, _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), cfg, nil); err != nil {
		t.Fatalf("recorder-less read failed: %v", err)
	}
}

func TestCheckpointerSaveAndLoadReplica(t *testing.T) {
	dir := t.TempDir()
	net, rec, meta, cfg := ckptFixture(t, 4)
	ck := Checkpointer{Dir: filepath.Join(dir, "ckpts"), Every: 2}
	if err := ck.Save(meta, net, rec); err != nil {
		t.Fatalf("Save: %v", err)
	}

	rec2 := metrics.NewRecorder(metrics.Config{Rounds: 64})
	cfg2 := cfg
	rec2.Install(&cfg2)
	got, ok, err := LoadReplica(ck.Dir, meta, cfg2, rec2)
	if err != nil || !ok {
		t.Fatalf("LoadReplica: ok=%v err=%v", ok, err)
	}
	if got.Round() != net.Round() {
		t.Fatalf("restored round %d, want %d", got.Round(), net.Round())
	}

	// Identity mismatch: right file shape, wrong expected replica/seed.
	bad := meta
	bad.Seed++
	if _, _, err := LoadReplica(ck.Dir, bad, cfg2, nil); err == nil {
		t.Fatal("seed mismatch accepted")
	}

	// Missing file: ok=false, no error.
	missing := meta
	missing.Replica = 99
	if _, ok, err := LoadReplica(ck.Dir, missing, cfg2, nil); ok || err != nil {
		t.Fatalf("missing file: ok=%v err=%v, want false,nil", ok, err)
	}
}
