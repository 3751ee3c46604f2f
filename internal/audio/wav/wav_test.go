package wav

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/audio/signal"
)

func TestRoundTrip(t *testing.T) {
	src, err := signal.DefaultProgram().Samples(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, src, 44100, 1); err != nil {
		t.Fatal(err)
	}
	got, rate, ch, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 44100 || ch != 1 || len(got) != len(src) {
		t.Fatalf("rate=%d ch=%d len=%d", rate, ch, len(got))
	}
	// 16-bit quantization: SNR ~ 90+ dB for near-full-scale content.
	if snr := signal.SNRdB(src, got); snr < 60 {
		t.Fatalf("wav round-trip SNR = %.1f dB", snr)
	}
}

func TestHeaderBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []float64{0, 0.5, -0.5, 1}, 8000, 1); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if string(b[0:4]) != "RIFF" || string(b[8:12]) != "WAVE" || string(b[36:40]) != "data" {
		t.Fatalf("bad header: % x", b[:44])
	}
	if len(b) != 44+8 {
		t.Fatalf("file size %d, want 52", len(b))
	}
}

func TestClipping(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []float64{2, -2}, 8000, 1); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-1) > 1e-4 || math.Abs(got[1]+1) > 1e-4 {
		t.Fatalf("clipping failed: %v", got)
	}
}

func TestStereoInterleaved(t *testing.T) {
	var buf bytes.Buffer
	samples := []float64{0.1, -0.1, 0.2, -0.2}
	if err := Write(&buf, samples, 48000, 2); err != nil {
		t.Fatal(err)
	}
	got, rate, ch, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 48000 || ch != 2 || len(got) != 4 {
		t.Fatalf("rate=%d ch=%d len=%d", rate, ch, len(got))
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []float64{1}, 0, 1); err == nil {
		t.Error("zero sample rate accepted")
	}
	if err := Write(&buf, []float64{1, 2, 3}, 8000, 2); err == nil {
		t.Error("odd sample count for stereo accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a wav file at all........"),
		[]byte("RIFF\x00\x00\x00\x00JUNK"),
	}
	for i, c := range cases {
		if _, _, _, err := read(bytes.NewReader(c)); !errors.Is(err, errFormat) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
}

func TestReadSkipsUnknownChunks(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []float64{0.25, -0.25}, 8000, 1); err != nil {
		t.Fatal(err)
	}
	// Splice a LIST chunk between the fmt and data chunks.
	b := buf.Bytes()
	withList := append([]byte{}, b[:36]...)
	withList = append(withList, 'L', 'I', 'S', 'T', 4, 0, 0, 0, 'x', 'x', 'x', 'x')
	withList = append(withList, b[36:]...)
	got, _, _, err := read(bytes.NewReader(withList))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("samples = %d", len(got))
	}
}
