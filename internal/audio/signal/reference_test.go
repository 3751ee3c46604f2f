package signal

// energy returns the mean square of x: what the tests measure the
// Synth's output with.
func energy(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return sum / float64(len(x))
}
