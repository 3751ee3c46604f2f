package signal

import (
	"math"
	"testing"
)

func TestSamplesDeterministic(t *testing.T) {
	s := DefaultProgram()
	a, err := s.Samples(100, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Samples(100, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between identical calls", i)
		}
	}
}

func TestOverlappingWindowsConsistent(t *testing.T) {
	// The property the MDCT pipeline relies on: Samples(off, n)[k] ==
	// Samples(0, off+n)[off+k], including the noise component.
	s := DefaultProgram()
	whole, err := s.Samples(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	win, err := s.Samples(128, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range win {
		if win[i] != whole[128+i] {
			t.Fatalf("window sample %d inconsistent: %v vs %v", i, win[i], whole[128+i])
		}
	}
}

func TestPureToneFrequency(t *testing.T) {
	s := &Synth{SampleRate: 1000, Tones: []Tone{{Freq: 100, Amp: 1}}}
	x, err := s.Samples(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 100 Hz at 1 kHz: period 10 samples.
	for i := 0; i+10 < len(x); i++ {
		if math.Abs(x[i]-x[i+10]) > 1e-9 {
			t.Fatalf("periodicity violated at %d", i)
		}
	}
	// RMS of a unit sine is 1/√2 => mean square 0.5.
	if e := energy(x); math.Abs(e-0.5) > 0.01 {
		t.Fatalf("tone energy = %v, want ~0.5", e)
	}
}

func TestBadSampleRate(t *testing.T) {
	s := &Synth{SampleRate: 0}
	if _, err := s.Samples(0, 4); err == nil {
		t.Fatal("zero sample rate accepted")
	}
}

func TestNoiseAmplitudeBounded(t *testing.T) {
	s := &Synth{SampleRate: 1000, NoiseAmp: 0.25, Seed: 9}
	x, err := s.Samples(0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if math.Abs(v) > 0.25 {
			t.Fatalf("noise sample %d = %v exceeds amplitude", i, v)
		}
	}
	if energy(x) == 0 {
		t.Fatal("noise generated silence")
	}
}

// TestFrames cuts hop-spaced, overlapping frames from one generator:
// Samples is a pure function of the sample index, so frame f+1's head
// repeats frame f's tail.
func TestFrames(t *testing.T) {
	s := DefaultProgram()
	const length, hop = 512, 256
	var frames [4][]float64
	for f := range frames {
		w, err := s.Samples(f*hop, length)
		if err != nil {
			t.Fatal(err)
		}
		frames[f] = w
	}
	for f := 0; f+1 < len(frames); f++ {
		for i := 0; i < length-hop; i++ {
			if frames[f][hop+i] != frames[f+1][i] {
				t.Fatalf("frames %d/%d: overlap mismatch at %d", f, f+1, i)
			}
		}
	}
}

func TestEnergyEmpty(t *testing.T) {
	if energy(nil) != 0 {
		t.Fatal("energy(nil) != 0")
	}
}

func TestSNRdB(t *testing.T) {
	ref := []float64{1, -1, 1, -1}
	if !math.IsInf(SNRdB(ref, ref), 1) {
		t.Fatal("perfect reconstruction not +Inf")
	}
	got := []float64{0.9, -0.9, 0.9, -0.9}
	snr := SNRdB(ref, got)
	// 10% amplitude error => 20 dB.
	if math.Abs(snr-20) > 0.1 {
		t.Fatalf("SNR = %v, want 20", snr)
	}
	if SNRdB([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Fatal("zero-signal SNR not 0")
	}
}
