// Package wav writes minimal RIFF/WAVE files (16-bit PCM, mono or
// multi-channel), so the audio demos can produce listenable artifacts of
// the synthesized program material and its decoded reconstruction.
package wav

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Write emits a 16-bit PCM WAVE file. Samples are float64 in [-1, 1]
// (clipped); channels are interleaved in samples if channels > 1.
func Write(w io.Writer, samples []float64, sampleRate, channels int) error {
	if sampleRate <= 0 || channels <= 0 {
		return fmt.Errorf("wav: invalid rate %d / channels %d", sampleRate, channels)
	}
	if len(samples)%channels != 0 {
		return fmt.Errorf("wav: %d samples not divisible by %d channels", len(samples), channels)
	}
	dataLen := 2 * len(samples)
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(36+dataLen))
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16) // PCM fmt chunk size
	binary.LittleEndian.PutUint16(hdr[20:22], 1)  // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], uint16(channels))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(sampleRate))
	byteRate := sampleRate * channels * 2
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(byteRate))
	binary.LittleEndian.PutUint16(hdr[32:34], uint16(channels*2)) // block align
	binary.LittleEndian.PutUint16(hdr[34:36], 16)                 // bits per sample
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], uint32(dataLen))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, dataLen)
	for i, s := range samples {
		v := int16(math.Round(clamp(s) * 32767))
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(v))
	}
	_, err := w.Write(buf)
	return err
}

func clamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}
