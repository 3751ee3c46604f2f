package metrics

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/snapshot"
)

// Checkpoint support: a Recorder's partial series are part of a run's
// resumable state (interrupting a replica must not cost the rounds
// already recorded), so the Recorder serializes into the same container
// files as the engine — its payload rides in snapshot.SecMetrics next to
// the engine's SecCore. The series names are not serialized: they are
// fixed by this package; the payload pins only the series *counts*, so a
// checkpoint written with a different schema is refused rather than
// misread.

// payloadVersion versions the SecMetrics payload layout.
const payloadVersion = 1

// EncodeState writes the recorder's mutable state — watched message,
// energy accumulator, and every series over the recorded rounds, 0
// through the highest — as a SecMetrics payload. Unrecorded rounds
// beyond it are omitted: they are zero by construction on both sides.
func (r *Recorder) EncodeState(w *snapshot.Writer) {
	w.Int(payloadVersion)
	w.Int(numInts)
	w.Int(numFloats)
	w.Int(r.last)
	w.Uvarint(uint64(r.watch))
	w.Int(r.prevBits)
	w.Int(r.tiles)
	n := r.last + 1
	for _, s := range r.ints {
		for _, v := range s[:n] {
			w.U64(uint64(v))
		}
	}
	for _, s := range r.floats {
		for _, v := range s[:n] {
			w.F64(v)
		}
	}
}

// RestoreState overwrites the recorder's state with one captured by
// EncodeState. The receiver must be built from the same Config — in
// particular the same Technology (not serialized; it is configuration,
// like the engine's Config). The series counts are validated. The reader
// is fully consumed.
func (r *Recorder) RestoreState(sec *snapshot.Reader) error {
	if v := sec.Int(); sec.Err() == nil && v != payloadVersion {
		return fmt.Errorf("metrics: checkpoint payload version %d, this build reads %d", v, payloadVersion)
	}
	nInts := sec.Int()
	nFloats := sec.Int()
	if sec.Err() == nil && (nInts != numInts || nFloats != numFloats) {
		return fmt.Errorf("metrics: checkpoint holds %d int + %d float series, this build records %d + %d",
			nInts, nFloats, numInts, numFloats)
	}
	last := sec.Int()
	// Each recorded round contributes 8 bytes to every series; bounding
	// last by the remaining payload keeps a hostile value from sizing a
	// huge allocation in ensure.
	if sec.Err() == nil && uint64(last) > uint64(sec.Remaining())/uint64((numInts+numFloats)*8) {
		return fmt.Errorf("metrics: checkpoint claims %d rounds, payload holds %d bytes", last, sec.Remaining())
	}
	watch := sec.Uvarint()
	prevBits := sec.Int()
	tiles := sec.Int()
	if err := sec.Err(); err != nil {
		return err
	}

	r.ensure(last)
	r.last = last
	r.watch = packet.MsgID(watch)
	r.prevBits = prevBits
	r.tiles = tiles
	n := last + 1
	for _, s := range r.ints {
		for i := 0; i < n; i++ {
			s[i] = int64(sec.U64())
		}
		for i := n; i < len(s); i++ {
			s[i] = 0
		}
	}
	for _, s := range r.floats {
		for i := 0; i < n; i++ {
			s[i] = sec.F64()
		}
		for i := n; i < len(s); i++ {
			s[i] = 0
		}
	}
	// The next booking counts from the restored network: its Counters
	// carry the run's totals, which the restored series sum to, and its
	// Tally restarts at zero.
	r.booked = [AwareTiles]int{}
	for _, id := range []IntID{Transmissions, CRCRejects, OverflowDrops, Deliveries} {
		r.booked[id] = int(r.Total(id))
	}
	return sec.Finish()
}
