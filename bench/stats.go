package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) in a sorted sample of n > 0. The epsilon keeps float
// error in p/100*n (99.9 % of 10000 is 9990.000000000001) from pushing
// an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0
// for an empty sample. Nearest rank never interpolates, so the reported
// latency is always one that was actually observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// samplesBeyond is how many of n samples lie above the nearest-rank
// p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// reportable lists the tail percentiles the suite prints, lowest first.
var reportable = []float64{50, 90, 95, 99, 99.9}

// highestSupported returns the highest percentile of reportable that
// still has at least ten samples beyond it in a sample of n, or 0 when
// not even the median does (n < 20).
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle of v (mean of the two middle values for an
// even count), or 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// rangeSpread is (max-min)/median, the within-run repeatability figure
// printed beside each median of repetitions.
func rangeSpread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	s := sortedCopy(v)
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// computes them (the "exclusive" method) — the driver judges the
// benchmark's steadiness with exactly this formula, so selfcheck must
// too. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4 // after the clamp, as Python does: small samples extrapolate
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// iqrSpread is (Q3-Q1)/median — the run-to-run spread the driver
// compares with a metric's bound.
func iqrSpread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
