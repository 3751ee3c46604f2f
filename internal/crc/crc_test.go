package crc

import (
	"hash/crc32"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestChecksum16KnownVector(t *testing.T) {
	// "123456789" is the standard CRC check string; CRC-16/CCITT-FALSE
	// of it is 0x29B1.
	if got := checksumSerial16([]byte("123456789")); got != 0x29b1 {
		t.Fatalf("CRC-16 of the check string = %#04x, want 0x29b1", got)
	}
}

func TestChecksum16Empty(t *testing.T) {
	if got := checksumSerial16(nil); got != 0xffff {
		t.Fatalf("CRC-16 of nothing = %#04x, want 0xffff (initial state)", got)
	}
}

func TestChecksum32MatchesStdlib(t *testing.T) {
	// CRC-32/IEEE of the check string is 0xCBF43926 on every platform.
	if got := Checksum32([]byte("123456789")); got != 0xcbf43926 {
		t.Fatalf("Checksum32(check string) = %#08x, want 0xcbf43926", got)
	}
	cases := [][]byte{
		nil,
		{0},
		[]byte("123456789"),
		[]byte("on-chip stochastic communication"),
		make([]byte, 1024),
	}
	for _, c := range cases {
		if got, want := Checksum32(c), crc32.ChecksumIEEE(c); got != want {
			t.Errorf("Checksum32(%q) = %#08x, want %#08x", c, got, want)
		}
	}
}

func TestSerialMatchesTable16(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		n := r.Intn(64)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		if got, want := checksumSerial16(data), checksum16(data); got != want {
			t.Fatalf("serial %#04x != table %#04x for %v", got, want, data)
		}
	}
}

// Lengths run past 64 bytes, where hash/crc32 switches from its tables to
// carry-less multiplication on amd64.
func TestSerialMatchesTable32(t *testing.T) {
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		n := r.Intn(300)
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		if got, want := checksumSerial32(data), Checksum32(data); got != want {
			t.Fatalf("serial %#08x != fast path %#08x for %v", got, want, data)
		}
	}
}

// Update32 over a split of the data, at every split point, gives the
// checksum of the whole (the container encoder's streaming CRC).
func TestChecksum32InPieces(t *testing.T) {
	r := rng.New(5)
	data := make([]byte, 300)
	for j := range data {
		data[j] = byte(r.Uint64())
	}
	want := checksumSerial32(data)
	for i := range data {
		if got := Update32(Update32(0, data[:i]), data[i:]); got != want {
			t.Fatalf("split at %d: %#08x, want %#08x", i, got, want)
		}
	}
	if Update32(0, nil) != Checksum32(nil) {
		t.Fatal("Update32 from 0 over nothing is not the empty checksum")
	}
}

// TestShiftRegisterReset checks that every new register starts in the
// reset state, whatever another register has clocked: each frame's CRC
// is computed from a fresh one.
func TestShiftRegisterReset(t *testing.T) {
	s := NewShiftRegister16()
	s.ClockByte(0xa5)
	if s.Sum() == 0xffff {
		t.Fatal("clocking a byte left the reset state")
	}
	if got := NewShiftRegister16().Sum(); got != 0xffff {
		t.Fatalf("new register Sum = %#04x, want 0xffff", got)
	}
}

// Property: the table-driven and bit-serial CRC-16 agree on arbitrary input.
func TestQuickSerialEquivalence16(t *testing.T) {
	f := func(data []byte) bool {
		return checksum16(data) == checksumSerial16(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the stdlib CRC-32 that Checksum32 returns agrees with the
// bit-serial reference on arbitrary input.
func TestQuickStdlibEquivalence32(t *testing.T) {
	f := func(data []byte) bool {
		return crc32.ChecksumIEEE(data) == checksumSerial32(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: any single-bit error is detected by CRC-16.
func TestSingleBitErrorsDetected(t *testing.T) {
	data := []byte("stochastic communication packet payload")
	want := checksumSerial16(data)
	for i := range data {
		for b := 0; b < 8; b++ {
			corrupted := make([]byte, len(data))
			copy(corrupted, data)
			corrupted[i] ^= 1 << uint(b)
			if checksumSerial16(corrupted) == want {
				t.Fatalf("single-bit error at byte %d bit %d undetected", i, b)
			}
		}
	}
}

// Property: any burst error up to 16 bits is detected by CRC-16 (a
// guarantee of any degree-16 generator polynomial with a nonzero constant
// term).
func TestBurstErrorsDetected16(t *testing.T) {
	r := rng.New(3)
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	want := checksumSerial16(data)
	for trial := 0; trial < 500; trial++ {
		burstLen := 1 + r.Intn(16) // bits
		start := r.Intn(len(data)*8 - burstLen)
		corrupted := make([]byte, len(data))
		copy(corrupted, data)
		// Flip the first and last bits of the burst so the burst length
		// is exactly burstLen, and random bits in between.
		flip := func(bit int) { corrupted[bit/8] ^= 1 << uint(7-bit%8) }
		flip(start)
		if burstLen > 1 {
			flip(start + burstLen - 1)
			for b := start + 1; b < start+burstLen-1; b++ {
				if r.Bool(0.5) {
					flip(b)
				}
			}
		}
		if checksumSerial16(corrupted) == want {
			t.Fatalf("burst error (len %d at %d) undetected", burstLen, start)
		}
	}
}

func TestRandomErrorsDetectionRate(t *testing.T) {
	// Random corruption should evade CRC-16 with probability ~2^-16;
	// in 20000 trials we expect ~0.3 misses, so >5 means a broken code.
	r := rng.New(4)
	data := make([]byte, 24)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	want := checksumSerial16(data)
	misses := 0
	for trial := 0; trial < 20000; trial++ {
		corrupted := make([]byte, len(data))
		for i := range corrupted {
			corrupted[i] = byte(r.Uint64())
		}
		if checksumSerial16(corrupted) == want {
			misses++
		}
	}
	if misses > 5 {
		t.Fatalf("random corruption evaded CRC-16 %d/20000 times", misses)
	}
}

func BenchmarkShiftRegister16(b *testing.B) {
	data := make([]byte, 64)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		_ = checksumSerial16(data)
	}
}

func BenchmarkChecksum32(b *testing.B) {
	data := make([]byte, 64)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		_ = Checksum32(data)
	}
}
