package metrics

import (
	"fmt"
	"strconv"
)

// Incremental export: the simulation service streams a running
// replica's series to subscribers round by round, while the run is
// still executing, and later serves the finished artifact from a
// byte-addressed cache. Those two paths must agree byte for byte —
// a client that watched the stream and a client that fetched the
// cached result must hold identical files — so the Streamer renders
// each round's line with exactly the bytes the batch exporter
// (WriteJSONL over a one-replica Merge) would emit for that round.
// The equivalence is pinned by TestStreamerMatchesBatchExport.

// Streamer incrementally renders one replica's recorded series as
// JSON Lines. RoundLine(r) returns the identical bytes line r of
// WriteJSONL(Merge([rec.Series()])) will hold once the run finishes:
// a single-replica round statistic (n=1, sum=mean=min=max=value,
// ci95=0) per series, in IntID/FloatID order, floats in the shortest
// round-tripping form. A round's values are final at its round
// barrier — the engine only ever writes into the current round — so
// streaming a line after each core.Network.Step is safe.
type Streamer struct {
	rec *Recorder
	buf []byte
}

// NewStreamer returns a Streamer over rec's recorded series.
func NewStreamer(rec *Recorder) *Streamer {
	return &Streamer{rec: rec}
}

// RoundLine renders round's JSONL line (newline-terminated). round
// must not exceed rec.Rounds(). The returned slice is reused by the
// next call; copy it to retain.
func (s *Streamer) RoundLine(round int) []byte {
	if round < 0 || round > s.rec.last {
		panic(fmt.Sprintf("metrics: Streamer.RoundLine(%d) outside recorded rounds [0, %d]", round, s.rec.last))
	}
	b := s.buf[:0]
	b = append(b, `{"round":`...)
	b = strconv.AppendInt(b, int64(round), 10)
	b = append(b, `,"replicas":1,"series":{`...)
	first := true
	for id, vals := range &s.rec.ints {
		b = appendSingleStat(b, &first, intNames[id], float64(vals[round]))
	}
	for id, vals := range &s.rec.floats {
		b = appendSingleStat(b, &first, floatNames[id], vals[round])
	}
	b = append(b, "}}\n"...)
	s.buf = b
	return b
}

// appendSingleStat appends one `"name":{...}` member holding the n=1
// statistic of value v — the RoundStat a one-replica Merge produces
// (sum = mean = min = max = v, ci95 = 0), rendered with the batch
// exporter's float formatting.
func appendSingleStat(b []byte, first *bool, name string, v float64) []byte {
	if !*first {
		b = append(b, ',')
	}
	*first = false
	b = append(b, '"')
	b = append(b, name...)
	b = append(b, `":{"n":1,"sum":`...)
	f := strconv.AppendFloat(nil, v, 'g', -1, 64)
	b = append(b, f...)
	b = append(b, `,"mean":`...)
	b = append(b, f...)
	b = append(b, `,"min":`...)
	b = append(b, f...)
	b = append(b, `,"max":`...)
	b = append(b, f...)
	b = append(b, `,"ci95":0}`...)
	return b
}
