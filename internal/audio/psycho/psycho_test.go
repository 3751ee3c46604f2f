package psycho

import (
	"math"
	"testing"

	"repro/internal/audio/signal"
)

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(500, 32); err == nil {
		t.Error("non-power-of-two window accepted")
	}
	if _, err := NewModel(64, 0); err == nil {
		t.Error("zero bands accepted")
	}
	if _, err := NewModel(16, 32); err == nil {
		t.Error("more bands than bins accepted")
	}
}

func TestBandEdgesPartitionSpectrum(t *testing.T) {
	for _, cfg := range [][2]int{{512, 32}, {512, 16}, {256, 32}, {1024, 32}, {64, 32}} {
		m, err := NewModel(cfg[0], cfg[1])
		if err != nil {
			t.Fatalf("NewModel(%v): %v", cfg, err)
		}
		prevHi := 0
		for b := 0; b < m.bands; b++ {
			lo, hi := m.BandRange(b)
			if lo != prevHi {
				t.Fatalf("cfg %v band %d: gap or overlap (lo=%d prevHi=%d)", cfg, b, lo, prevHi)
			}
			if hi <= lo {
				t.Fatalf("cfg %v band %d empty", cfg, b)
			}
			prevHi = hi
		}
		if prevHi != cfg[0]/2 {
			t.Fatalf("cfg %v: bands cover %d of %d bins", cfg, prevHi, cfg[0]/2)
		}
	}
}

func TestBandwidthGrowsWithFrequency(t *testing.T) {
	// Pseudo-Bark: high bands must be wider than low bands.
	m, err := NewModel(512, 32)
	if err != nil {
		t.Fatal(err)
	}
	lo0, hi0 := m.BandRange(0)
	loN, hiN := m.BandRange(31)
	if (hiN - loN) <= (hi0 - lo0) {
		t.Fatalf("top band (%d bins) not wider than bottom (%d bins)", hiN-loN, hi0-lo0)
	}
}

func TestAnalyzeWindowLenChecked(t *testing.T) {
	m, _ := NewModel(512, 32)
	if _, err := m.Analyze(make([]float64, 100)); err == nil {
		t.Fatal("wrong window length accepted")
	}
}

func TestSilenceGivesQuietFloor(t *testing.T) {
	m, _ := NewModel(512, 32)
	a, err := m.Analyze(make([]float64, 512))
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 32; b++ {
		if a.Energy[b] != 0 {
			t.Fatalf("silence has energy in band %d", b)
		}
		if a.Threshold[b] != quietFloor {
			t.Fatalf("silence threshold band %d = %v", b, a.Threshold[b])
		}
		if a.SMR[b] != 0 {
			t.Fatalf("silence SMR band %d = %v", b, a.SMR[b])
		}
	}
}

func TestToneEnergyInCorrectBand(t *testing.T) {
	// A 4 kHz tone at 44.1 kHz with a 512 window sits at bin
	// 4000/44100*512 ≈ 46.4.
	s := &signal.Synth{SampleRate: 44100, Tones: []signal.Tone{{Freq: 4000, Amp: 0.8}}}
	win, err := s.Samples(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(512, 32)
	a, err := m.Analyze(win)
	if err != nil {
		t.Fatal(err)
	}
	// Find the band containing bin 46.
	target := -1
	for b := 0; b < 32; b++ {
		lo, hi := m.BandRange(b)
		if lo <= 46 && 46 < hi {
			target = b
		}
	}
	best := 0
	for b := 1; b < 32; b++ {
		if a.Energy[b] > a.Energy[best] {
			best = b
		}
	}
	// Windowing may leak into the adjacent band.
	if d := best - target; d < -1 || d > 1 {
		t.Fatalf("tone energy peaked in band %d, expected near %d", best, target)
	}
}

func TestMaskingSpreadsToNeighbors(t *testing.T) {
	s := &signal.Synth{SampleRate: 44100, Tones: []signal.Tone{{Freq: 4000, Amp: 0.8}}}
	win, _ := s.Samples(0, 512)
	m, _ := NewModel(512, 32)
	a, err := m.Analyze(win)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for b := 1; b < 32; b++ {
		if a.Energy[b] > a.Energy[best] {
			best = b
		}
	}
	// Neighbor bands inherit an elevated threshold from the masker.
	if best+1 < 32 && a.Threshold[best+1] <= quietFloor {
		t.Fatal("no spreading into the upper neighbor band")
	}
	if best > 0 && a.Threshold[best-1] <= quietFloor {
		t.Fatal("no spreading into the lower neighbor band")
	}
	// And the masker band's own threshold dominates its neighbors'.
	if a.Threshold[best] <= a.Threshold[best+1] {
		t.Fatal("masker threshold not above spread threshold")
	}
}

func TestThresholdProperties(t *testing.T) {
	// Two invariants: (1) every band can hide at least its own-band
	// margin of noise (threshold >= energy × 10^(-20/10)); (2) the
	// dominant band is never fully masked — its threshold stays below
	// its energy (positive SMR), otherwise quantization could erase the
	// loudest component. Quiet bands MAY be fully masked by loud
	// neighbors; that is the point of the model.
	win, err := signal.DefaultProgram().Samples(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewModel(512, 32)
	a, err := m.Analyze(win)
	if err != nil {
		t.Fatal(err)
	}
	margin := math.Pow(10, -snrMarginDB/10)
	best := 0
	for b := 0; b < 32; b++ {
		if a.Energy[b] > a.Energy[best] {
			best = b
		}
		if a.Threshold[b] < a.Energy[b]*margin*(1-1e-12) {
			t.Fatalf("band %d: threshold %v below own-band margin", b, a.Threshold[b])
		}
	}
	if a.Threshold[best] >= a.Energy[best] {
		t.Fatalf("dominant band %d fully masked: thr %v >= E %v",
			best, a.Threshold[best], a.Energy[best])
	}
	if a.SMR[best] <= 0 {
		t.Fatalf("dominant band SMR = %v", a.SMR[best])
	}
}

func TestLouderSignalRaisesThresholds(t *testing.T) {
	m, _ := NewModel(512, 32)
	quiet := &signal.Synth{SampleRate: 44100, Tones: []signal.Tone{{Freq: 1000, Amp: 0.1}}}
	loud := &signal.Synth{SampleRate: 44100, Tones: []signal.Tone{{Freq: 1000, Amp: 0.9}}}
	wq, _ := quiet.Samples(0, 512)
	wl, _ := loud.Samples(0, 512)
	aq, err := m.Analyze(wq)
	if err != nil {
		t.Fatal(err)
	}
	al, err := m.Analyze(wl)
	if err != nil {
		t.Fatal(err)
	}
	sumQ, sumL := 0.0, 0.0
	for b := 0; b < 32; b++ {
		sumQ += aq.Threshold[b]
		sumL += al.Threshold[b]
	}
	if sumL <= sumQ {
		t.Fatalf("louder signal lowered total threshold: %v vs %v", sumL, sumQ)
	}
	ratio := sumL / sumQ
	if math.Abs(ratio-81) > 20 {
		// (0.9/0.1)² = 81: thresholds scale with energy.
		t.Fatalf("threshold ratio %v, expected ≈81", ratio)
	}
}
