package wav

import (
	"encoding/binary"
	"errors"
	"io"
)

// errFormat is returned for files this minimal decoder does not handle.
var errFormat = errors.New("wav: unsupported or malformed file")

// read parses a 16-bit PCM WAVE file written by Write (or any compatible
// encoder using a plain fmt+data layout): the decoder the tests read
// Write's output back with. It returns interleaved samples scaled to
// [-1, 1].
func read(r io.Reader) (samples []float64, sampleRate, channels int, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, 0, errFormat
	}
	if string(hdr[0:4]) != "RIFF" || string(hdr[8:12]) != "WAVE" {
		return nil, 0, 0, errFormat
	}
	var bitsPerSample int
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			return nil, 0, 0, errFormat
		}
		id := string(chunk[0:4])
		size := int(binary.LittleEndian.Uint32(chunk[4:8]))
		switch id {
		case "fmt ":
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, 0, 0, errFormat
			}
			if binary.LittleEndian.Uint16(body[0:2]) != 1 {
				return nil, 0, 0, errFormat // not PCM
			}
			channels = int(binary.LittleEndian.Uint16(body[2:4]))
			sampleRate = int(binary.LittleEndian.Uint32(body[4:8]))
			bitsPerSample = int(binary.LittleEndian.Uint16(body[14:16]))
			if bitsPerSample != 16 || channels <= 0 || sampleRate <= 0 {
				return nil, 0, 0, errFormat
			}
		case "data":
			if bitsPerSample == 0 {
				return nil, 0, 0, errFormat // data before fmt
			}
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, 0, 0, errFormat
			}
			samples = make([]float64, size/2)
			for i := range samples {
				v := int16(binary.LittleEndian.Uint16(body[2*i:]))
				samples[i] = float64(v) / 32767
			}
			return samples, sampleRate, channels, nil
		default:
			// Skip unknown chunks (LIST, etc.).
			if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
				return nil, 0, 0, errFormat
			}
		}
	}
}
