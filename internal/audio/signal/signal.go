// Package signal synthesizes and frames the PCM audio used to drive the
// MP3-encoder case study (§4.2). The thesis feeds the encoder real audio
// through PVM; we have no audio files in an offline reproduction, so the
// Signal Acquisition stage synthesizes deterministic program material —
// tone mixtures with optional noise — which exercises the identical
// psychoacoustic/MDCT/quantization pipeline.
package signal

import (
	"errors"
	"math"
)

// noiseAt hashes (seed, index) into a uniform value in [-1, 1) using the
// SplitMix64 finalizer — stateless, so any window recomputes the same
// noise for the same absolute sample.
func noiseAt(seed, index uint64) float64 {
	z := seed + 0x9e3779b97f4a7c15*(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return 2*float64(z>>11)/(1<<53) - 1
}

// Tone is one sinusoidal component.
type Tone struct {
	// Freq is in Hz, Amp in linear full-scale units (≤ 1), Phase in
	// radians.
	Freq, Amp, Phase float64
}

// Synth generates deterministic program material.
type Synth struct {
	// SampleRate in Hz (e.g. 44100).
	SampleRate int
	// Tones are summed.
	Tones []Tone
	// NoiseAmp adds uniform white noise of the given amplitude.
	NoiseAmp float64
	// Seed drives the noise generator.
	Seed uint64
}

// ErrBadRate is returned for non-positive sample rates.
var ErrBadRate = errors.New("signal: sample rate must be positive")

// Samples returns n samples starting at sample offset off. The output is
// deterministic in (Synth, off, n) — re-generating any window yields
// identical samples, which lets pipeline stages be stateless.
func (s *Synth) Samples(off, n int) ([]float64, error) {
	if s.SampleRate <= 0 {
		return nil, ErrBadRate
	}
	out := make([]float64, n)
	for _, tone := range s.Tones {
		w := 2 * math.Pi * tone.Freq / float64(s.SampleRate)
		for i := range out {
			out[i] += tone.Amp * math.Sin(w*float64(off+i)+tone.Phase)
		}
	}
	if s.NoiseAmp > 0 {
		// Noise is a pure function of the absolute sample index so that
		// overlapping windows see identical noise samples.
		for i := range out {
			out[i] += s.NoiseAmp * noiseAt(s.Seed, uint64(off+i))
		}
	}
	return out, nil
}

// DefaultProgram is the standard test material used across experiments: a
// chord plus a high partial and a little noise, at 44.1 kHz.
func DefaultProgram() *Synth {
	return &Synth{
		SampleRate: 44100,
		Tones: []Tone{
			{Freq: 440, Amp: 0.40},
			{Freq: 554.37, Amp: 0.25},
			{Freq: 659.25, Amp: 0.20},
			{Freq: 3520, Amp: 0.05},
		},
		NoiseAmp: 0.01,
		Seed:     0xa0d10,
	}
}

// SNRdB returns the signal-to-noise ratio, in dB, of a reconstruction
// versus a reference. Returns +Inf for a perfect reconstruction.
func SNRdB(ref, got []float64) float64 {
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	var sig, noise float64
	for i := 0; i < n; i++ {
		sig += ref[i] * ref[i]
		d := ref[i] - got[i]
		noise += d * d
	}
	if noise == 0 {
		return math.Inf(1)
	}
	if sig == 0 {
		return 0
	}
	return 10 * math.Log10(sig/noise)
}
