package metrics

import (
	"reflect"
	"testing"

	"repro/internal/snapshot"
)

// buildRecorder records a small synthetic workload: a few rounds of
// custom-series writes, so every mutable field of the Recorder is
// non-zero before the round trip.
func buildRecorder(reg *Registry, custom IntID) *Recorder {
	r := NewRecorder(Config{Rounds: 16, Registry: reg})
	r.Watch(42)
	r.prevBits = 1234
	r.tiles = 64
	for round := 0; round <= 9; round++ {
		r.AddInt(Created, round, int64(round))
		r.AddInt(custom, round, int64(-round)) // negative: two's complement path
		r.SetFloat(EnergyJ, round, float64(round)*0.5)
	}
	return r
}

func TestRecorderStateRoundTrip(t *testing.T) {
	mkReg := func() (*Registry, IntID) {
		reg := NewRegistry()
		return reg, reg.AddInt("custom_counter")
	}
	reg, custom := mkReg()
	orig := buildRecorder(reg, custom)

	w := snapshot.NewWriter()
	orig.EncodeState(w)

	reg2, custom2 := mkReg()
	got := NewRecorder(Config{Rounds: 16, Registry: reg2})
	if err := got.RestoreState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if got.last != orig.last || got.watch != orig.watch ||
		got.prevBits != orig.prevBits || got.tiles != orig.tiles {
		t.Fatalf("scalar state did not round-trip: got last=%d watch=%d prevBits=%d tiles=%d",
			got.last, got.watch, got.prevBits, got.tiles)
	}
	if !reflect.DeepEqual(got.Series(), orig.Series()) {
		t.Fatal("series did not round-trip")
	}
	if got.Total(custom2) != orig.Total(custom) {
		t.Fatal("custom (negative) series total did not round-trip")
	}
}

func TestRecorderRestoreClearsStaleRounds(t *testing.T) {
	reg, custom := NewRegistry(), IntID(0)
	_ = custom
	short := NewRecorder(Config{Rounds: 16, Registry: reg})
	short.AddInt(Created, 3, 7) // last = 3

	w := snapshot.NewWriter()
	short.EncodeState(w)

	// Restore into a recorder that already holds data beyond round 3:
	// those rounds must come back zero, not survive as ghosts.
	dirty := NewRecorder(Config{Rounds: 16, Registry: NewRegistry()})
	dirty.AddInt(Created, 10, 99)
	if err := dirty.RestoreState(snapshot.NewReader(w.Bytes())); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if dirty.last != 3 {
		t.Fatalf("last = %d, want 3", dirty.last)
	}
	if got := dirty.ints[Created][10]; got != 0 {
		t.Fatalf("stale round survived restore: ints[Created][10] = %d", got)
	}
}

func TestRecorderRestoreRejectsShapeMismatch(t *testing.T) {
	reg := NewRegistry()
	reg.AddInt("extra")
	orig := NewRecorder(Config{Rounds: 8, Registry: reg})
	w := snapshot.NewWriter()
	orig.EncodeState(w)

	plain := NewRecorder(Config{Rounds: 8}) // built-in registry only
	if err := plain.RestoreState(snapshot.NewReader(w.Bytes())); err == nil {
		t.Fatal("restore into a recorder with fewer series succeeded")
	}
}

func TestRecorderRestoreRejectsOversizedRoundClaim(t *testing.T) {
	// A payload claiming more recorded rounds than its bytes can hold
	// must fail before ensure() sizes tables from the claim.
	w := snapshot.NewWriter()
	w.Int(payloadVersion)
	w.Int(numBuiltinInts)
	w.Int(numBuiltinFloats)
	w.Uvarint(1 << 40) // last: Int's encoding, at a value 32-bit int cannot hold
	w.Uvarint(0)
	w.Int(0)
	w.Int(0)
	r := NewRecorder(Config{Rounds: 8})
	if err := r.RestoreState(snapshot.NewReader(w.Bytes())); err == nil {
		t.Fatal("implausible round count accepted")
	}
}
