// Package psycho is the psychoacoustic model of the MP3-encoder pipeline
// (Fig. 4-7): it looks at each analysis window's spectrum and decides how
// much quantization noise each frequency band can hide.
//
// The model is a compact FFT-based masker in the spirit of ISO
// psychoacoustic model 1: a Hann-windowed FFT yields band energies over
// pseudo-Bark bands; each band's masking threshold is its own energy
// attenuated by a tonality-independent SNR margin, raised by energy
// spread from neighboring bands, and floored at the threshold in quiet.
// The per-band allowed-noise output drives the quantizer's rate loop.
package psycho

import (
	"errors"
	"math"

	"repro/internal/dsp/fft"
)

// Model holds precomputed analysis tables for one window size.
type Model struct {
	windowLen int
	bands     int
	hann      []float64
	edges     []int // band b covers spectrum bins [edges[b], edges[b+1])
}

// ErrBadWindow is returned for invalid window sizes.
var ErrBadWindow = errors.New("psycho: window length must be a power of two >= 2*bands")

// NewModel builds a model for the given analysis window length (a power
// of two) and band count.
func NewModel(windowLen, bands int) (*Model, error) {
	if !fft.IsPowerOfTwo(windowLen) || bands < 1 || windowLen/2 < bands {
		return nil, ErrBadWindow
	}
	m := &Model{windowLen: windowLen, bands: bands}
	m.hann = make([]float64, windowLen)
	for i := range m.hann {
		m.hann[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(windowLen))
	}
	// Pseudo-Bark edges: quadratic growth of bandwidth with band index,
	// guaranteeing at least one bin per band.
	half := windowLen / 2
	m.edges = make([]int, bands+1)
	for b := 0; b <= bands; b++ {
		frac := float64(b) / float64(bands)
		edge := int(math.Round(frac * frac * float64(half)))
		m.edges[b] = edge
	}
	// Enforce strictly increasing edges (low bands collapse under the
	// quadratic map for small windows).
	m.edges[0] = 0
	for b := 1; b <= bands; b++ {
		if m.edges[b] <= m.edges[b-1] {
			m.edges[b] = m.edges[b-1] + 1
		}
	}
	// The tail must still fit; push overflow back.
	if m.edges[bands] > half {
		return nil, ErrBadWindow
	}
	m.edges[bands] = half
	for b := bands - 1; b >= 1; b-- {
		if m.edges[b] >= m.edges[b+1] {
			m.edges[b] = m.edges[b+1] - 1
		}
	}
	return m, nil
}

// BandRange returns the spectrum bin range [lo, hi) of band b.
func (m *Model) BandRange(b int) (lo, hi int) { return m.edges[b], m.edges[b+1] }

// Analysis is the model's output for one window.
type Analysis struct {
	// Energy[b] is the band's spectral energy.
	Energy []float64
	// Threshold[b] is the masking threshold: total quantization-noise
	// energy band b can absorb inaudibly.
	Threshold []float64
	// SMR[b] is the signal-to-mask ratio in dB (how much the band
	// matters perceptually).
	SMR []float64
}

// Model parameters: a 20 dB SNR margin inside a band, 12 dB/band
// spreading attenuation, and a tiny absolute threshold in quiet.
const (
	snrMarginDB   = 20.0
	spreadPerBand = 12.0
	quietFloor    = 1e-9
)

// Analyze computes the masking analysis of one windowLen-sample window.
func (m *Model) Analyze(window []float64) (*Analysis, error) {
	if len(window) != m.windowLen {
		return nil, ErrBadWindow
	}
	buf := make([]complex128, m.windowLen)
	for i, v := range window {
		buf[i] = complex(v*m.hann[i], 0)
	}
	if err := fft.Forward(buf); err != nil {
		return nil, err
	}
	half := m.windowLen / 2
	power := make([]float64, half)
	for i := 0; i < half; i++ {
		re, im := real(buf[i]), imag(buf[i])
		power[i] = re*re + im*im
	}

	a := &Analysis{
		Energy:    make([]float64, m.bands),
		Threshold: make([]float64, m.bands),
		SMR:       make([]float64, m.bands),
	}
	for b := 0; b < m.bands; b++ {
		for i := m.edges[b]; i < m.edges[b+1]; i++ {
			a.Energy[b] += power[i]
		}
	}
	margin := math.Pow(10, -snrMarginDB/10)
	spread := math.Pow(10, -spreadPerBand/10)
	for b := 0; b < m.bands; b++ {
		// Own-band masking.
		thr := a.Energy[b] * margin
		// Inter-band spreading: each step away attenuates by
		// spreadPerBand dB.
		att := spread
		for d := 1; d < m.bands; d++ {
			contrib := 0.0
			if b-d >= 0 {
				contrib += a.Energy[b-d]
			}
			if b+d < m.bands {
				contrib += a.Energy[b+d]
			}
			if c := contrib * margin * att; c > thr {
				thr = c
			}
			att *= spread
			if att < 1e-12 {
				break
			}
		}
		if thr < quietFloor {
			thr = quietFloor
		}
		a.Threshold[b] = thr
		if a.Energy[b] > 0 {
			a.SMR[b] = 10 * math.Log10(a.Energy[b]/thr)
		}
	}
	return a, nil
}
