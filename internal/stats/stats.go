// Package stats provides the descriptive statistics used to aggregate
// repeated stochastic-simulation runs ("all of the results presented ...
// are averages obtained after several repeated simulations", §4.1).
package stats

import (
	"fmt"
	"math"
)

// Online accumulates moments incrementally using Welford's algorithm, so
// long simulations never hold their samples in memory.
type Online struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasSamples bool
}

// Add incorporates one sample.
func (o *Online) Add(x float64) {
	o.n++
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
	if !o.hasSamples || x < o.min {
		o.min = x
	}
	if !o.hasSamples || x > o.max {
		o.max = x
	}
	o.hasSamples = true
}

// N returns the number of samples.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the unbiased sample variance (n-1 denominator).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest sample, or 0 with no samples.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample, or 0 with no samples.
func (o *Online) Max() float64 { return o.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval on the mean.
func (o *Online) CI95() float64 {
	if o.n < 2 {
		return 0
	}
	return 1.96 * o.StdDev() / math.Sqrt(float64(o.n))
}

// Summary is a value snapshot of an Online accumulator, convenient for
// experiment result tables.
type Summary struct {
	// N is the number of accumulated samples.
	N int
	// Mean is the sample mean.
	Mean float64
	// StdDev is the sample standard deviation (n−1 denominator).
	StdDev float64
	// Min and Max bound the accumulated samples.
	Min, Max float64
	// CI95Width is the half-width of the normal-approximation 95%
	// confidence interval on the mean.
	CI95Width float64
}

// Summarize snapshots o.
func Summarize(o *Online) Summary {
	return Summary{
		N: o.N(), Mean: o.Mean(), StdDev: o.StdDev(),
		Min: o.Min(), Max: o.Max(), CI95Width: o.CI95(),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g ±%.3g",
		s.N, s.Mean, s.StdDev, s.Min, s.Max, s.CI95Width)
}

// NormalQuantile returns the p-th quantile of the standard normal
// distribution (the z-value with Φ(z) = p), via the error-function
// inverse: z = √2·erfinv(2p−1). It is the z_α ingredient of fixed-N
// sample-size planning (smc.FixedN). p outside (0, 1) yields ±Inf.
func NormalQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// LinReg fits y = a + b·x by ordinary least squares and returns the
// intercept, slope and coefficient of determination R². It needs at
// least two distinct x values; otherwise it returns zeros.
func LinReg(xs, ys []float64) (a, b, r2 float64) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0, 0, 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1 // constant y: the fit is exact
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2
}
