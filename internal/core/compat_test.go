package core

// Checkpoint format tests. testdata/compat holds the historical oracle of
// the engine: a mid-run state written by the original dense-flags engine
// (payload version 1) together with the 8-round continuation that engine
// produced from it. The state was carried forward — restored by the last
// build that read version 1 and re-snapshotted in the current layout
// (v5_grid6x6.ckpt) — while the golden continuation is frozen: the engine
// that recorded it is gone. The tests pin three promises:
//
//  1. The carried-forward state continues bit-identically — events,
//     deliveries, counters, awareness — to what the original engine did.
//  2. Corrupt or truncated payloads are rejected with an error, never a
//     panic — the decoder validates before it trusts.
//  3. Every payload version but the current one is refused by name
//     (ErrPayloadVersion).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// compatCfg is the configuration of the run that wrote the frozen
// checkpoint, minus the Config fields deleted since (a hard send-buffer
// cap of 4, which never bound in the frozen continuation). The embedded
// digest pins it:
// deleting a field re-stamps the checkpoint — patch in the new digest,
// restore, re-snapshot — and only the four digest bytes move.
func compatCfg() Config {
	return Config{
		Topo: topology.NewGrid(6, 6), P: 0.5, TTL: 8,
		MaxRounds: 1000, Seed: 0xC0FFEE,
		Fault: fault.Model{
			PUpset: 0.12, LiteralUpsets: true, SigmaSync: 0.8,
			POverflow: 0.05, DeadTiles: 2, Protect: []packet.TileID{0, 21},
		},
	}
}

func readCompatFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatalf("frozen compat golden missing: %v", err)
	}
	return b
}

// goldenReceiver writes each delivery it is handed as a golden "deliver"
// line: what the delivery hook of the engine that recorded the golden
// wrote, at the same point of the event sequence (right after EvDeliver).
type goldenReceiver struct{ w *strings.Builder }

func (goldenReceiver) Init(*Ctx)  {}
func (goldenReceiver) Round(*Ctx) {}

func (r goldenReceiver) Receive(ctx *Ctx, p *packet.Packet) {
	fmt.Fprintf(r.w, "deliver %d %d %d %q\n", ctx.Round(), ctx.Self(), p.ID, p.Payload)
}

// TestRestoreV1Golden restores the state the version-1 engine froze
// (carried forward to the current layout) and replays its recorded
// 8-round continuation: every event, delivery (payload included, read by
// a recording Receiver on every tile), the final counters and the
// awareness state of all four injected messages must match what the
// dense-flags engine produced.
func TestRestoreV1Golden(t *testing.T) {
	ckpt := readCompatFile(t, "v5_grid6x6.ckpt")
	golden := string(readCompatFile(t, "v1_grid6x6.golden"))

	var rec strings.Builder
	cfg := compatCfg()
	cfg.OnEvent = func(ev Event) {
		fmt.Fprintf(&rec, "event %d %d %d %d %d\n", ev.Round, ev.Kind, ev.Tile, ev.Peer, ev.Msg)
	}
	n, err := RestoreSection(snapshot.NewReader(ckpt), cfg)
	if err != nil {
		t.Fatalf("frozen checkpoint no longer restores: %v", err)
	}
	n.SetForwardLimit(14, 1) // routers/limits are re-applied by the caller, as documented
	for ti := 0; ti < n.Topology().Tiles(); ti++ {
		n.Attach(packet.TileID(ti), goldenReceiver{&rec})
	}
	for i := 0; i < 8; i++ {
		n.Step()
	}
	c := n.Counters()
	fmt.Fprintf(&rec, "rounds %d\n", n.Round())
	fmt.Fprintf(&rec, "counters %d %d %d %d %d %d %d %d %d\n",
		c.Energy.Transmissions, c.Energy.Bits, c.UpsetsInjected, c.UpsetsDetected,
		c.OverflowDrops, c.SlippedDeliveries, c.Deliveries, c.DeliveredPayloadBits, c.Duplicates)
	for id := packet.MsgID(1); id <= 4; id++ {
		fmt.Fprintf(&rec, "aware %d %d ", id, n.Aware(id))
		for ti := 0; ti < n.Topology().Tiles(); ti++ {
			if n.AwareAt(id, packet.TileID(ti)) {
				rec.WriteByte('1')
			} else {
				rec.WriteByte('0')
			}
		}
		rec.WriteByte('\n')
	}

	if rec.String() != golden {
		got := strings.Split(rec.String(), "\n")
		want := strings.Split(golden, "\n")
		for i := 0; i < len(got) || i < len(want); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("continuation diverges from the pre-refactor engine at line %d:\n  got  %q\n  want %q", i+1, g, w)
			}
		}
		t.Fatal("continuation diverges from the pre-refactor engine")
	}
}

// TestRestoreRefusesOtherVersions pins the single-version contract: a
// payload stamped with any version but the current one — the four retired
// layouts, zero, the next — comes back as ErrPayloadVersion before any of
// it is decoded, never a panic.
func TestRestoreRefusesOtherVersions(t *testing.T) {
	ckpt := readCompatFile(t, "v5_grid6x6.ckpt")
	if ckpt[0] != corePayloadVersion {
		t.Fatalf("frozen checkpoint is stamped version %d, want %d", ckpt[0], corePayloadVersion)
	}
	for _, v := range []byte{0, 1, 2, 3, 4, 6} {
		mut := append([]byte(nil), ckpt...)
		mut[0] = v // versions below 128 are one uvarint byte
		_, err := RestoreSection(snapshot.NewReader(mut), compatCfg())
		if !errors.Is(err, ErrPayloadVersion) {
			t.Errorf("version %d: err = %v, want ErrPayloadVersion", v, err)
		}
	}
}

// TestRestoreRefusesBatchFlag pins the retired batch-kernel byte of the
// v5 payload (offset 6: after the version, the four digest bytes and the
// Recycle flag). EncodeState writes it as 0; a payload with a 1 there was
// written under a draw kernel this build no longer has, and Restore
// refuses it by name instead of resuming it under a different
// realisation.
func TestRestoreRefusesBatchFlag(t *testing.T) {
	payload, cfg := recycleState(t)
	const batchByte = 6
	if payload[batchByte-1] != 1 || payload[batchByte] != 0 {
		t.Fatalf("payload bytes 5-6 = %v, want the Recycle flag then 0", payload[batchByte-1:batchByte+1])
	}
	mut := append([]byte(nil), payload...)
	mut[batchByte] = 1
	if _, err := RestoreSection(snapshot.NewReader(mut), cfg); !errors.Is(err, errRetiredKernel) {
		t.Fatalf("payload with the batch byte set: err = %v, want errRetiredKernel", err)
	}
}

// recycleState builds a mid-run recycling network and returns its
// payload bytes plus the config to restore under.
func recycleState(t *testing.T) ([]byte, Config) {
	t.Helper()
	cfg := compatCfg()
	cfg.Recycle = true
	n := mustNet(t, cfg)
	for round := 0; round < 12; round++ {
		if round%2 == 0 {
			src := packet.TileID(round % n.Topology().Tiles())
			if _, err := n.Inject(src, packet.Broadcast, 0, []byte("v2")); err != nil {
				t.Fatal(err)
			}
		}
		n.Step()
	}
	w := snapshot.NewWriter()
	n.EncodeState(w)
	return w.Bytes(), cfg
}

// TestRestoreV2CorruptSections byte-flips every position of a healthy
// payload and truncates it at every length: each mutation must either
// restore cleanly (flips the CRC catches are rejected earlier; a few
// positions are genuinely don't-care) or fail with an error — never
// panic, never hang. This is the cheap deterministic cousin of
// FuzzRestore, run on every go test.
func TestRestoreV2CorruptSections(t *testing.T) {
	payload, cfg := recycleState(t)

	t.Run("intact", func(t *testing.T) {
		if _, err := RestoreSection(snapshot.NewReader(payload), cfg); err != nil {
			t.Fatalf("healthy payload rejected: %v", err)
		}
	})
	t.Run("flips", func(t *testing.T) {
		for i := range payload {
			for _, flip := range []byte{0x01, 0x80} {
				mut := make([]byte, len(payload))
				copy(mut, payload)
				mut[i] ^= flip
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panic restoring payload with byte %d flipped by %#x: %v", i, flip, r)
						}
					}()
					_, _ = RestoreSection(snapshot.NewReader(mut), cfg)
				}()
			}
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for l := 0; l < len(payload); l++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic restoring payload truncated to %d bytes: %v", l, r)
					}
				}()
				if _, err := RestoreSection(snapshot.NewReader(payload[:l]), cfg); err == nil {
					t.Fatalf("payload truncated to %d of %d bytes restored without error", l, len(payload))
				}
			}()
		}
	})
}

// TestSnapshotRoundTripRecycle pins the payload round trip with recycling
// active: Snapshot → Restore must reproduce a byte-identical re-snapshot
// (whole-state equality).
func TestSnapshotRoundTripRecycle(t *testing.T) {
	payload, cfg := recycleState(t)
	n, err := RestoreSection(snapshot.NewReader(payload), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewWriter()
	n.EncodeState(w)
	if string(w.Bytes()) != string(payload) {
		t.Fatal("restore → re-encode is not byte-identical for a recycling network")
	}
}
