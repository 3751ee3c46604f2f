package crc

import (
	"hash/crc32"
	"testing"
)

// Fuzz targets pinning each live CRC to its independent form on
// arbitrary byte strings: the bit-serial shift register (Fig. 3-5) the
// packet frames run to the CRC-16 table, and hash/crc32, which the
// checkpoint container runs, to the bit-serial CRC-32. testing/quick
// covers the same property with its own small generator; the fuzz
// targets add coverage-guided input generation and a persistent corpus,
// and run as a smoke pass in CI.

func FuzzSerialEquivalence16(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("123456789"))
	f.Add([]byte{0xff, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := checksumSerial16(data), checksum16(data); got != want {
			t.Fatalf("serial CRC-16 %#04x != table %#04x", got, want)
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
		if got := checksumSerial32(data); got != want {
			t.Fatalf("serial CRC-32 %#08x != stdlib %#08x", got, want)
		}
	})
}
