package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// This file pins the checkpoint/resume contract: Restore(Snapshot(run to
// round k)) → run to round n is bit-identical to an uninterrupted n-round
// run — same counters, tallies and mailbox contents, same aware tables
// and, with a listener, the same event sequence — for any k, with or
// without a listener, and any fault-knob combination; the resume rows of
// the variant table (TestSnapshotResumeBitIdentity, diff_test.go) replay
// it over the population. The
// snapshot bytes both runs produce at every round barrier are the
// whole-state oracle: two states that serialize identically under a
// deterministic encoder ARE identical, in-flight arrivals and RNG streams
// included.

// everythingScenario enables every fault knob at once — literal upsets
// with the random-bit error model, overflow, link and tile crashes with a
// protect list, synchronization skew — so a resumed run has to replay
// every code path the engine has.
func everythingScenario() scenario {
	return scenario{
		name: "everything",
		cfg: func() Config {
			return Config{
				Topo: topology.NewGrid(12, 12), P: 0.55, TTL: 10,
				MaxRounds: 1000, Seed: 99,
				Fault: fault.Model{
					PUpset: 0.12, POverflow: 0.06, PLinkCrash: 0.04,
					DeadTiles: 8, SigmaSync: 0.8,
					LiteralUpsets: true, ErrorModel: packet.RandomBitError,
					Protect: []packet.TileID{0, 105, 143},
				},
			}
		},
		inject: []injection{
			{beforeRound: 0, src: 0, dst: packet.Broadcast, payload: "kickoff"},
			{beforeRound: 5, src: 143, dst: 105, kind: 1, payload: "mid-run unicast"},
			{beforeRound: 11, src: 105, dst: packet.Broadcast, payload: "late wave"},
		},
		rounds: 24,
	}
}

// snapshotBytes serializes n and fails the test on error.
func snapshotBytes(tb testing.TB, n *Network) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := n.Snapshot(&buf); err != nil {
		tb.Fatalf("Snapshot: %v", err)
	}
	return buf.Bytes()
}

// TestSnapshotDeterministic pins the whole-state oracle's premise: two
// networks in identical states must serialize to identical bytes.
func TestSnapshotDeterministic(t *testing.T) {
	sc := everythingScenario()
	run := func() []byte {
		n, err := New(sc.cfg())
		if err != nil {
			t.Fatal(err)
		}
		mustInject(t, n, 0, packet.Broadcast, 0, []byte("det"))
		for i := 0; i < 12; i++ {
			n.Step()
		}
		return snapshotBytes(t, n)
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different snapshot bytes")
	}
}

// TestRestoreRejectsDifferentConfig pins the digest guard: a checkpoint
// must not resume under a configuration that would change behavior.
func TestRestoreRejectsDifferentConfig(t *testing.T) {
	base := Config{Topo: topology.NewGrid(4, 4), P: 0.5, TTL: 8, MaxRounds: 100, Seed: 7}
	n, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	mustInject(t, n, 0, packet.Broadcast, 0, nil)
	for i := 0; i < 5; i++ {
		n.Step()
	}
	ckpt := snapshotBytes(t, n)

	mutations := map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed = 8 },
		"p":        func(c *Config) { c.P = 0.6 },
		"ttl":      func(c *Config) { c.TTL = 9 },
		"topology": func(c *Config) { c.Topo = topology.NewGrid(4, 5) },
		"fault":    func(c *Config) { c.Fault.PUpset = 0.1 },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := Restore(bytes.NewReader(ckpt), cfg); err == nil {
			t.Errorf("restore under mutated config %q succeeded, want digest error", name)
		}
	}

	// Function fields are deliberately outside the digest.
	cfg := base
	cfg.OnEvent = func(Event) {}
	if _, err := Restore(bytes.NewReader(ckpt), cfg); err != nil {
		t.Errorf("restore with different hooks failed: %v", err)
	}
}

// TestRestoreRejectsInconsistentState pins the post-CRC validation: a
// structurally valid container whose payload violates engine invariants
// must be rejected, not trusted. Each mutation re-encodes a legitimate
// payload with one field broken and re-seals it in a fresh container, so
// only RestoreSection's own checks can catch it.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	cfg := Config{Topo: topology.NewGrid(3, 3), P: 0.6, TTL: 6, MaxRounds: 100, Seed: 5}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustInject(t, n, 0, packet.Broadcast, 0, []byte("x"))
	for i := 0; i < 3; i++ {
		n.Step()
	}

	reseal := func(payload []byte) []byte {
		var buf bytes.Buffer
		enc := snapshot.NewEncoder(&buf)
		w := enc.Section(snapshot.SecCore)
		w.WriteRaw(payload)
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := func() []byte {
		w := snapshot.NewWriter()
		n.EncodeState(w)
		return w.Bytes()
	}()

	if _, err := Restore(bytes.NewReader(reseal(good)), cfg); err != nil {
		t.Fatalf("resealed unmodified payload rejected: %v", err)
	}

	// The digest lives at bytes [offset, offset+4) after the uvarint
	// payload version; flipping it must fail even though the container
	// CRC is valid.
	bad := append([]byte(nil), good...)
	bad[1] ^= 0xff // first digest byte (the version encodes as one byte)
	if _, err := Restore(bytes.NewReader(reseal(bad)), cfg); err == nil {
		t.Error("corrupted digest accepted")
	}

	// Truncated payload: a valid container whose core section ends
	// mid-structure.
	if _, err := Restore(bytes.NewReader(reseal(good[:len(good)-3])), cfg); err == nil {
		t.Error("truncated payload accepted")
	}

	// Trailing garbage after a complete payload.
	if _, err := Restore(bytes.NewReader(reseal(append(append([]byte(nil), good...), 1, 2, 3))), cfg); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestRestoreRefusesBufferNotASet pins the send-buffer invariant on the
// restore side: a tile's present bit for a message is set exactly when it
// buffers one copy. Each edit doctors a live network in a way its aware
// counts cannot see (the doctored tile is the source, whose seen bit is
// set) and snapshots it; Restore must refuse the payload with an error —
// a repeated message ID, a present bit without a copy, a copy without its
// present bit — with recycling off and on.
func TestRestoreRefusesBufferNotASet(t *testing.T) {
	edits := []struct {
		name, want string
		edit       func(n *Network, src *tile)
	}{
		{"repeated-id", "twice", func(n *Network, src *tile) {
			src.sendBuf = append(src.sendBuf, src.sendBuf[0])
		}},
		{"present-without-copy", "present at", func(n *Network, src *tile) {
			src.sendBuf = src.sendBuf[:0]
		}},
		{"copy-without-present", "without its present bit", func(n *Network, src *tile) {
			rowClear(n.tbl.present[msgSlot(src.sendBuf[0].ID)], src.id)
		}},
	}
	for _, recycle := range []bool{false, true} {
		for _, e := range edits {
			cfg := Config{Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 8, MaxRounds: 100, Seed: 5, Recycle: recycle}
			n := mustNet(t, cfg)
			mustInject(t, n, 5, packet.Broadcast, 0, []byte("x"))
			n.Step()
			src := &n.tiles[5]
			if len(src.sendBuf) != 1 {
				t.Fatalf("source tile buffers %d copies, want 1 to doctor", len(src.sendBuf))
			}
			if _, err := Restore(bytes.NewReader(snapshotBytes(t, n)), cfg); err != nil {
				t.Fatalf("recycle=%v: undoctored checkpoint refused: %v", recycle, err)
			}
			e.edit(n, src)
			_, err := Restore(bytes.NewReader(snapshotBytes(t, n)), cfg)
			if err == nil || !strings.Contains(err.Error(), e.want) {
				t.Errorf("recycle=%v, %s: err = %v, want one naming %q", recycle, e.name, err, e.want)
			}
		}
	}
}

// TestRestoreZeroTTLOnlyUnderLiteralUpsets pins the one buffered TTL of
// zero a consistent engine can hold. A wire frame's TTL byte is outside
// the CRC, so under LiteralUpsets a bit flip can land a copy in a send
// buffer at TTL 0 (the next aging wraps it); a checkpoint taken in between
// must restore and continue bit-identically. With analytic upsets no
// frame exists to flip, and the same bytes are corruption.
func TestRestoreZeroTTLOnlyUnderLiteralUpsets(t *testing.T) {
	for _, literal := range []bool{true, false} {
		cfg := Config{
			Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 8, MaxRounds: 100, Seed: 5,
			Fault: fault.Model{PUpset: 0.1, LiteralUpsets: literal},
		}
		n := mustNet(t, cfg)
		mustInject(t, n, 5, packet.Broadcast, 0, []byte("x"))
		n.Step()
		n.Step()
		if len(n.tiles[5].sendBuf) == 0 {
			t.Fatal("source tile holds no copy to doctor")
		}
		n.tiles[5].sendBuf[0].TTL = 0 // what the flipped frame leaves behind
		restored, err := Restore(bytes.NewReader(snapshotBytes(t, n)), cfg)
		if !literal {
			if err == nil {
				t.Error("buffered TTL 0 accepted without LiteralUpsets")
			}
			continue
		}
		if err != nil {
			t.Fatalf("LiteralUpsets: checkpoint holding a TTL-0 copy refused: %v", err)
		}
		for i := 0; i < 6; i++ {
			n.Step()
			restored.Step()
		}
		if !bytes.Equal(snapshotBytes(t, n), snapshotBytes(t, restored)) {
			t.Error("resumed run diverged from the straight one after a TTL-0 copy")
		}
	}
}

// TestSnapshotOfQuiescentAndFreshNetworks covers the edges: a network
// that has never stepped, and one that has fully quiesced.
func TestSnapshotOfQuiescentAndFreshNetworks(t *testing.T) {
	cfg := Config{Topo: topology.NewGrid(3, 3), P: 1, TTL: 4, MaxRounds: 100, Seed: 2}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh: round 0, nothing injected.
	n2, err := Restore(bytes.NewReader(snapshotBytes(t, n)), cfg)
	if err != nil {
		t.Fatalf("restore of fresh network: %v", err)
	}
	mustInject(t, n2, 0, packet.Broadcast, 0, nil)
	rounds := n2.Drain(50)

	// The same run without the checkpoint detour must agree.
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustInject(t, m, 0, packet.Broadcast, 0, nil)
	if want := m.Drain(50); rounds != want || m.Counters() != n2.Counters() {
		t.Fatalf("fresh-restore run diverged: %d rounds vs %d, %+v vs %+v",
			rounds, want, n2.Counters(), m.Counters())
	}

	// Quiescent: everything expired, ring empty, buffers empty.
	q, err := Restore(bytes.NewReader(snapshotBytes(t, m)), cfg)
	if err != nil {
		t.Fatalf("restore of quiescent network: %v", err)
	}
	if !q.Quiescent() || q.Round() != m.Round() || q.Counters() != m.Counters() {
		t.Fatal("quiescent state did not round-trip")
	}
}
