package metrics

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// TestStreamerMatchesBatchExport pins the streaming/batch equivalence
// the service's result cache depends on: the concatenation of
// Streamer.RoundLine(0..Rounds), taken incrementally after every Step,
// must be byte-identical to WriteJSONL over the finished run's
// one-replica merge. A client that watched the live stream holds the
// same file a later client fetches from the cache.
func TestStreamerMatchesBatchExport(t *testing.T) {
	rec := NewRecorder(Config{Rounds: 64, Tech: energy.NoCLink025})
	cfg := core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.55, TTL: 8, MaxRounds: 64, Seed: 909,
		Fault: fault.Model{PUpset: 0.1},
	}
	rec.Install(&cfg)
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := net.Inject(0, packet.Broadcast, 0, []byte("stream"))
	if err != nil {
		t.Fatal(err)
	}
	rec.Watch(id)
	rec.Sync(net) // book the injection before round 0 streams

	var streamed bytes.Buffer
	str := NewStreamer(rec)
	streamed.Write(str.RoundLine(0)) // pre-run injections live in round 0
	for !net.Quiescent() && net.Round() < 64 {
		net.Step()
		streamed.Write(str.RoundLine(net.Round()))
	}

	agg, err := Merge([]*TimeSeries{rec.Series()})
	if err != nil {
		t.Fatal(err)
	}
	var batch bytes.Buffer
	if err := WriteJSONL(&batch, agg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Fatalf("streamed JSONL differs from batch export:\nstreamed:\n%s\nbatch:\n%s",
			streamed.Bytes(), batch.Bytes())
	}
}

// TestStreamerLineReuse documents that RoundLine reuses its buffer:
// retaining a line requires a copy.
func TestStreamerLineReuse(t *testing.T) {
	rec := NewRecorder(Config{Rounds: 8})
	add(rec, Created, 0, 1)
	add(rec, Created, 1, 2)
	str := NewStreamer(rec)
	l0 := append([]byte(nil), str.RoundLine(0)...)
	l1 := str.RoundLine(1)
	if bytes.Equal(l0, l1) {
		t.Fatal("distinct rounds rendered identical lines")
	}
	if !bytes.Equal(l0, str.RoundLine(0)) {
		t.Fatal("re-rendering a round changed its bytes")
	}
}

// TestStreamerRoundLineAllocatesNothing pins that RoundLine, which the
// daemon calls once per round of every job, renders into its reused
// buffer without allocating once that buffer has grown.
func TestStreamerRoundLineAllocatesNothing(t *testing.T) {
	rec := NewRecorder(Config{Rounds: 8})
	add(rec, Created, 0, 1)
	add(rec, Created, 1, 2)
	str := NewStreamer(rec)
	str.RoundLine(0)
	if allocs := testing.AllocsPerRun(100, func() { str.RoundLine(1) }); allocs != 0 {
		t.Fatalf("RoundLine allocates %v times a call, want 0", allocs)
	}
}

// TestStreamerRejectsUnrecordedRound pins the contract that only
// recorded rounds (0 through the highest) can be rendered.
func TestStreamerRejectsUnrecordedRound(t *testing.T) {
	rec := NewRecorder(Config{Rounds: 8})
	add(rec, Created, 2, 1)
	str := NewStreamer(rec)
	for _, r := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RoundLine(%d) did not panic", r)
				}
			}()
			str.RoundLine(r)
		}()
	}
}
