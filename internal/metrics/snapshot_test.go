package metrics

import (
	"reflect"
	"testing"

	"repro/internal/snapshot"
)

// add records delta into integer series id at round, as OnRoundEnd does.
func add(r *Recorder, id IntID, round int, delta int64) {
	r.ensure(round)
	r.ints[id][round] += delta
}

// buildRecorder records a small synthetic workload, so every mutable
// field of the Recorder is non-zero before the round trip.
func buildRecorder() *Recorder {
	r := NewRecorder(Config{Rounds: 16})
	r.Watch(42)
	r.prevBits = 1234
	r.tiles = 64
	for round := 0; round <= 9; round++ {
		add(r, Created, round, int64(round))
		add(r, AwareTiles, round, int64(2*round))
		r.floats[EnergyJ][round] = float64(round) * 0.5
	}
	return r
}

func TestRecorderStateRoundTrip(t *testing.T) {
	orig := buildRecorder()

	w := snapshot.NewWriter()
	orig.EncodeState(w)

	got := NewRecorder(Config{Rounds: 16})
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
}

func TestRecorderRestoreClearsStaleRounds(t *testing.T) {
	short := NewRecorder(Config{Rounds: 16})
	add(short, Created, 3, 7) // last = 3

	w := snapshot.NewWriter()
	short.EncodeState(w)

	// Restore into a recorder that already holds data beyond round 3:
	// those rounds must come back zero, not survive as ghosts.
	dirty := NewRecorder(Config{Rounds: 16})
	add(dirty, Created, 10, 99)
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

// TestRecorderRestoreRejectsShapeMismatch feeds hand-built SecMetrics
// payloads whose series counts differ from the recorder's schema: a
// checkpoint is outside input, so a file written under another schema
// must be refused, not misread.
func TestRecorderRestoreRejectsShapeMismatch(t *testing.T) {
	for _, shape := range [][2]int{
		{numInts + 1, numFloats},
		{numInts, numFloats - 1},
		{numInts + 1, numFloats - 1}, // same payload size: only the counts tell
	} {
		w := snapshot.NewWriter()
		w.Int(payloadVersion)
		w.Int(shape[0])
		w.Int(shape[1])
		w.Int(0) // last
		w.Uvarint(0)
		w.Int(0)
		w.Int(0)
		for i := 0; i < shape[0]+shape[1]; i++ {
			w.U64(0) // round 0 of every series the payload claims
		}
		r := NewRecorder(Config{Rounds: 8})
		if err := r.RestoreState(snapshot.NewReader(w.Bytes())); err == nil {
			t.Errorf("payload with %d int + %d float series accepted", shape[0], shape[1])
		}
	}
}

func TestRecorderRestoreRejectsOversizedRoundClaim(t *testing.T) {
	// A payload claiming more recorded rounds than its bytes can hold
	// must fail before ensure() sizes tables from the claim.
	w := snapshot.NewWriter()
	w.Int(payloadVersion)
	w.Int(numInts)
	w.Int(numFloats)
	w.Uvarint(1 << 40) // last: Int's encoding, at a value 32-bit int cannot hold
	w.Uvarint(0)
	w.Int(0)
	w.Int(0)
	r := NewRecorder(Config{Rounds: 8})
	if err := r.RestoreState(snapshot.NewReader(w.Bytes())); err == nil {
		t.Fatal("implausible round count accepted")
	}
}
