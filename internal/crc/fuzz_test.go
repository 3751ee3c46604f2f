package crc

import (
	"hash/crc32"
	"testing"
)

// Fuzz targets pinning the equivalence of each CRC's two implementations
// on arbitrary byte strings. The fast path (the CRC-16 table, hash/crc32
// for CRC-32) is what the simulator runs; the bit-serial shift register
// is the hardware-faithful reference
// (Fig. 3-5). testing/quick covers the same property with its own small
// generator; the fuzz targets add coverage-guided input generation and a
// persistent corpus, and run as a smoke pass in CI.

func FuzzSerialEquivalence16(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("123456789"))
	f.Add([]byte{0xff, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := Checksum16(data)
		if got := ChecksumSerial16(data); got != want {
			t.Fatalf("serial CRC-16 %#04x != table %#04x", got, want)
		}
		// The register must also be position-independent: clocking the
		// same bytes through a reused (Reset) engine gives the same sum.
		s := NewShiftRegister16()
		s.ClockByte(0xa5)
		s.Reset()
		for _, b := range data {
			s.ClockByte(b)
		}
		if got := s.Sum(); got != want {
			t.Fatalf("reset+reuse CRC-16 %#04x != table %#04x", got, want)
		}
	})
}

func FuzzSerialEquivalence32(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("123456789"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := crc32.ChecksumIEEE(data)
		if got := Checksum32(data); got != want {
			t.Fatalf("Checksum32 %#08x != stdlib %#08x", got, want)
		}
		if got := ChecksumSerial32(data); got != want {
			t.Fatalf("serial CRC-32 %#08x != stdlib %#08x", got, want)
		}
	})
}
