package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// This file holds the exporters. Both formats are byte-stable: series
// appear in IntID/FloatID order (never map order), floats are rendered with
// strconv.FormatFloat(v, 'g', -1, 64) (the shortest round-tripping
// form), and the merged input is itself deterministic in (Replicas,
// Seed) — so a JSONL/CSV artifact regenerates byte-identically at any
// worker count (pinned by TestMetricsExportGolden).

// WriteFile writes a to the file at path: CSV when path ends in .csv,
// JSONL otherwise.
func WriteFile(path string, a *Aggregate) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = WriteCSV(f, a)
	} else {
		err = WriteJSONL(f, a)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fmtF renders a float byte-stably.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteJSONL writes a as JSON Lines: one object per round,
//
//	{"round":R,"replicas":N,"series":{"<name>":{"n":…,"sum":…,"mean":…,"min":…,"max":…,"ci95":…},…}}
//
// with integer series first, then float series, each in IntID/FloatID order.
// The per-round "sum" fields of the event-count series reconcile
// exactly, summed over rounds, with the core.Counters totals summed
// over replicas.
func WriteJSONL(w io.Writer, a *Aggregate) error {
	bw := bufio.NewWriter(w)
	var b []byte
	for r := 0; r <= a.Rounds; r++ {
		b = appendLineHead(b[:0], r, a.Replicas)
		for id := range a.Ints {
			b = appendRoundStat(b, intNames[id], a.Ints[id][r])
		}
		for id := range a.Floats {
			b = appendRoundStat(b, floatNames[id], a.Floats[id][r])
		}
		if _, err := bw.Write(append(b, "}}\n"...)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendLineHead opens round's JSONL line: the round and replica counts
// and the series object, whose members appendRoundStat appends.
func appendLineHead(b []byte, round, replicas int) []byte {
	b = append(b, `{"round":`...)
	b = strconv.AppendInt(b, int64(round), 10)
	b = append(b, `,"replicas":`...)
	b = strconv.AppendInt(b, int64(replicas), 10)
	return append(b, `,"series":{`...)
}

// appendRoundStat appends one `"name":{"n":…,"sum":…,"mean":…,"min":…,
// "max":…,"ci95":…}` member of a line's series object, preceded by a
// comma unless it is the first, floats in fmtF's form. It is the one
// renderer of a JSONL member: WriteJSONL and Streamer.RoundLine both
// call it. A field with the bits of sum copies sum's bytes, and a +0
// is "0", instead of formatting them again: a one-replica statistic,
// which the daemon streams every round, repeats its value four times
// and has a zero ci95.
func appendRoundStat(b []byte, name string, s RoundStat) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, name...)
	b = append(b, `":{"n":`...)
	b = strconv.AppendInt(b, int64(s.N), 10)
	b = append(b, `,"sum":`...)
	at := len(b)
	b = strconv.AppendFloat(b, s.Sum, 'g', -1, 64)
	sum := b[at:len(b):len(b)]
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"mean":`, s.Mean}, {`,"min":`, s.Min}, {`,"max":`, s.Max}, {`,"ci95":`, s.CI95}} {
		b = append(b, f.key...)
		switch bits := math.Float64bits(f.v); {
		case bits == math.Float64bits(s.Sum):
			b = append(b, sum...)
		case bits == 0:
			b = append(b, '0')
		default:
			b = strconv.AppendFloat(b, f.v, 'g', -1, 64)
		}
	}
	return append(b, '}')
}

// WriteCSV writes a in long form, one row per (round, series):
//
//	round,series,n,sum,mean,min,max,ci95
//
// with integer series first, then float series, each in IntID/FloatID order
// within every round.
func WriteCSV(w io.Writer, a *Aggregate) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("round,series,n,sum,mean,min,max,ci95\n"); err != nil {
		return err
	}
	for r := 0; r <= a.Rounds; r++ {
		for id := range a.Ints {
			writeCSVStat(bw, r, intNames[id], a.Ints[id][r])
		}
		for id := range a.Floats {
			writeCSVStat(bw, r, floatNames[id], a.Floats[id][r])
		}
	}
	return bw.Flush()
}

// writeCSVStat emits one CSV row.
func writeCSVStat(bw *bufio.Writer, round int, name string, s RoundStat) {
	fmt.Fprintf(bw, "%d,%s,%d,%s,%s,%s,%s,%s\n",
		round, name, s.N, fmtF(s.Sum), fmtF(s.Mean), fmtF(s.Min), fmtF(s.Max), fmtF(s.CI95))
}
