package metrics

import (
	"errors"

	"repro/internal/stats"
)

// RoundStat is the cross-replica statistic of one series at one round.
// Units follow the series (counts for integer series, fractions or
// joules for the float series); CI95 is the half-width of the
// normal-approximation 95% confidence interval on the mean.
type RoundStat struct {
	// N is how many replicas contributed a value at this round (runs
	// stop at different rounds, so N can shrink along the tail).
	N int
	// Sum is the exact total over the contributing replicas — the
	// field that reconciles against core.Counters totals (for integer
	// series it is an integer-valued float64).
	Sum float64
	// Mean, Min, Max summarize the contributing replicas.
	Mean, Min, Max float64
	// CI95 is the 95% confidence half-width on Mean (0 for N < 2).
	CI95 float64
}

// Aggregate is the deterministic cross-replica merge of per-round
// series: for every series and every round, the mean/min/max/CI over the
// Monte Carlo replicas that reached that round. Produced by Merge
// (usually via sim.RunSeries) and consumed by the exporters.
type Aggregate struct {
	// Replicas is how many runs were merged.
	Replicas int
	// Rounds is the longest run's highest round; every series has
	// Rounds+1 entries.
	Rounds int
	// Ints holds the merged integer series, indexed [IntID][round].
	Ints [numInts][]RoundStat
	// Floats holds the merged float series, indexed [FloatID][round].
	Floats [numFloats][]RoundStat
}

// Merge folds replicas' TimeSeries into per-round cross-replica
// statistics. The fold visits replicas in slice order, so the result is
// a pure function of the input slice — the internal/sim runner hands
// replicas over in replica-index order, making the merged output
// invariant under worker count and scheduling (Welford accumulation is
// order-sensitive in its float rounding, so the fixed order is what
// makes the bytes reproducible).
func Merge(runs []*TimeSeries) (*Aggregate, error) {
	if len(runs) == 0 {
		return nil, errors.New("metrics: Merge of zero runs")
	}
	rounds := 0
	for _, ts := range runs {
		if ts.Rounds > rounds {
			rounds = ts.Rounds
		}
	}
	a := &Aggregate{Replicas: len(runs), Rounds: rounds}
	for id := range a.Ints {
		a.Ints[id] = make([]RoundStat, rounds+1)
		for r := range a.Ints[id] {
			var o stats.Online
			var sum float64
			for _, ts := range runs {
				if r <= ts.Rounds {
					x := float64(ts.Ints[id][r])
					o.Add(x)
					sum += x
				}
			}
			a.Ints[id][r] = roundStat(&o, sum)
		}
	}
	for id := range a.Floats {
		a.Floats[id] = make([]RoundStat, rounds+1)
		for r := range a.Floats[id] {
			var o stats.Online
			var sum float64
			for _, ts := range runs {
				if r <= ts.Rounds {
					x := ts.Floats[id][r]
					o.Add(x)
					sum += x
				}
			}
			a.Floats[id][r] = roundStat(&o, sum)
		}
	}
	return a, nil
}

// roundStat reads one round's fold. Sum is kept beside the accumulator
// because the running mean cannot give it back exactly.
func roundStat(o *stats.Online, sum float64) RoundStat {
	return RoundStat{N: o.N(), Sum: sum, Mean: o.Mean(), Min: o.Min(), Max: o.Max(), CI95: o.CI95()}
}
