package metrics

import "fmt"

// Incremental export: the simulation service streams a running
// replica's series to subscribers round by round, while the run is
// still executing, and later serves the finished artifact from a
// byte-addressed cache. Those two paths must agree byte for byte —
// a client that watched the stream and a client that fetched the
// cached result must hold identical files — so the Streamer renders
// each round's line through the batch exporter's own line renderer
// (appendLineHead, appendRoundStat), handing it the statistic a
// one-replica Merge would hold. The equivalence is pinned by
// TestStreamerMatchesBatchExport.

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
// must not exceed the highest round rec has recorded. The returned
// slice is reused by the next call; copy it to retain.
func (s *Streamer) RoundLine(round int) []byte {
	if round < 0 || round > s.rec.last {
		panic(fmt.Sprintf("metrics: Streamer.RoundLine(%d) outside recorded rounds [0, %d]", round, s.rec.last))
	}
	b := appendLineHead(s.buf[:0], round, 1)
	for id, vals := range &s.rec.ints {
		b = appendRoundStat(b, intNames[id], single(float64(vals[round])))
	}
	for id, vals := range &s.rec.floats {
		b = appendRoundStat(b, floatNames[id], single(vals[round]))
	}
	b = append(b, "}}\n"...)
	s.buf = b
	return b
}

// single is the statistic a one-replica Merge produces for value v:
// n = 1, sum = mean = min = max = v, ci95 = 0.
func single(v float64) RoundStat {
	return RoundStat{N: 1, Sum: v, Mean: v, Min: v, Max: v}
}
