package metrics

import (
	"bufio"
	"fmt"
	"io"
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
	for r := 0; r <= a.Rounds; r++ {
		fmt.Fprintf(bw, `{"round":%d,"replicas":%d,"series":{`, r, a.Replicas)
		first := true
		for id := range a.Ints {
			writeJSONStat(bw, &first, intNames[id], a.Ints[id][r])
		}
		for id := range a.Floats {
			writeJSONStat(bw, &first, floatNames[id], a.Floats[id][r])
		}
		if _, err := bw.WriteString("}}\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeJSONStat emits one `"name":{...}` member.
func writeJSONStat(bw *bufio.Writer, first *bool, name string, s RoundStat) {
	if !*first {
		bw.WriteByte(',')
	}
	*first = false
	fmt.Fprintf(bw, `"%s":{"n":%d,"sum":%s,"mean":%s,"min":%s,"max":%s,"ci95":%s}`,
		name, s.N, fmtF(s.Sum), fmtF(s.Mean), fmtF(s.Min), fmtF(s.Max), fmtF(s.CI95))
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
