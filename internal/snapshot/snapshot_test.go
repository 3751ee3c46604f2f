package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crc"
)

// encode builds a small two-section container used across the tests.
func encode(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	a := enc.Section(SecCore)
	a.U8(7)
	a.U16(0xbeef)
	a.U32(0xdeadbeef)
	a.U64(1 << 60)
	a.Uvarint(300)
	a.Int(42)
	a.F64(math.Pi)
	a.Bool(true)
	a.WriteBytes([]byte("payload"))
	b := enc.Section(SecMetrics)
	b.WriteBytes(nil)
	if err := enc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	dec, err := NewDecoder(bytes.NewReader(encode(t)))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if !dec.Has(SecCore) || !dec.Has(SecMetrics) || dec.Has(SecSim) {
		t.Fatal("section index wrong")
	}
	r, err := dec.Section(SecCore)
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if hi, lo := r.U8(), r.U8(); hi != 0xbe || lo != 0xef {
		t.Errorf("U16 wrote %#x %#x, want 0xbe 0xef", hi, lo)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool = false")
	}
	if got := r.ReadBytes(); string(got) != "payload" {
		t.Errorf("ReadBytes = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	m, err := dec.Section(SecMetrics)
	if err != nil {
		t.Fatalf("Section(metrics): %v", err)
	}
	if got := m.ReadBytes(); len(got) != 0 {
		t.Errorf("empty bytes decoded to %q", got)
	}
	if err := m.Finish(); err != nil {
		t.Fatalf("Finish(metrics): %v", err)
	}
}

// TestSnapshotLayout pins the bytes Close streams out against the format
// written out by hand, for a container with sections and one without;
// the trailer is the standard library's CRC-32 (IEEE) of the body, which
// internal/crc's tests hold to a bit-serial CRC-32.
func TestSnapshotLayout(t *testing.T) {
	var sections []byte
	for _, s := range []struct {
		id      byte
		payload []byte
	}{
		{byte(SecCore), []byte{7, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0x10, 0, 0, 0, 0, 0, 0, 0, 0xac, 0x02, 42,
			0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18, 1, 7, 'p', 'a', 'y', 'l', 'o', 'a', 'd'}},
		{byte(SecMetrics), []byte{0}},
	} {
		sections = append(append(sections, s.id, byte(len(s.payload))), s.payload...)
	}
	for _, c := range []struct {
		name      string
		got, body []byte
	}{
		{"two sections", encode(t), append([]byte("SNOC\x00\x01"), sections...)},
		{"no sections", func() []byte {
			var buf bytes.Buffer
			if err := NewEncoder(&buf).Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}(), []byte("SNOC\x00\x01")},
	} {
		want := binary.BigEndian.AppendUint32(c.body, crc32.ChecksumIEEE(c.body))
		if !bytes.Equal(c.got, want) {
			t.Errorf("%s: Close wrote\n%x, want\n%x", c.name, c.got, want)
		}
	}
}

// TestSnapshotReadFile reads a WriteFile container back into a recycled
// buffer, and tells a missing file (an *fs.PathError) from a corrupt one.
func TestSnapshotReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c")
	if err := WriteFile(path, func(enc *Encoder) { enc.Section(SecSim).WriteBytes([]byte("payload")) }); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < 2; i++ {
		dec, err := ReadFile(path, &buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		r, err := dec.Section(SecSim)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.ReadBytesNoCopy(); string(got) != "payload" || &got[0] != &buf[9] {
			t.Fatalf("read %d: %q, want \"payload\" aliasing the buffer", i, got)
		}
	}
	raw := readRaw(t, path)
	if len(buf) != len(raw)+1 {
		t.Fatalf("buffer of %d bytes for a %d-byte file, want the file and one byte to see its end", len(buf), len(raw))
	}

	var pe *fs.PathError
	if _, err := ReadFile(path+".missing", &buf); !errors.As(err, &pe) || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want an *fs.PathError for a missing file", err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, &buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: %v, want ErrCorrupt", err)
	}
}

// readRaw returns the bytes of the file at path.
func readRaw(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestReadBytesNoCopyAliases pins the copy-free read: the same bytes as
// ReadBytes, taken out of the decoded buffer itself, with the same
// sticky-error guard on a length the input cannot hold.
func TestReadBytesNoCopyAliases(t *testing.T) {
	w := NewWriter()
	w.Grow(16)
	w.WriteBytes([]byte("payload"))
	w.WriteBytes(nil)
	data := w.Bytes()
	r := NewReader(data)
	got := r.ReadBytesNoCopy()
	if string(got) != "payload" || &got[0] != &data[1] {
		t.Fatalf("ReadBytesNoCopy = %q, want \"payload\" aliasing the input", got)
	}
	if got := r.ReadBytesNoCopy(); len(got) != 0 {
		t.Fatalf("empty string decoded to %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	r = NewReader([]byte{5, 'a'}) // declares 5 bytes, holds 1
	if got := r.ReadBytesNoCopy(); got != nil || r.Err() == nil {
		t.Fatalf("short string: got %q, err %v", got, r.Err())
	}
}

func TestEveryBitFlipIsDetected(t *testing.T) {
	good := encode(t)
	for i := range good {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			if _, err := Decode(bad); err == nil {
				t.Fatalf("flipping byte %d bit %d went undetected", i, bit)
			}
		}
	}
}

func TestEveryTruncationIsDetected(t *testing.T) {
	good := encode(t)
	for n := 0; n < len(good); n++ {
		if _, err := Decode(good[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestUnknownVersionRejected(t *testing.T) {
	good := encode(t)
	bad := append([]byte(nil), good...)
	bad[4], bad[5] = 0x7f, 0xff // bump the version field...
	// ...and re-seal the CRC so only the version mismatch remains.
	var buf bytes.Buffer
	body := bad[:len(bad)-4]
	w := NewWriter()
	w.buf = append(w.buf, body...)
	w.U32(crc.Checksum32(body))
	buf.Write(w.Bytes())
	_, err := Decode(buf.Bytes())
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestMissingSection(t *testing.T) {
	dec, err := Decode(encode(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Section(SecSim); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing section: err = %v, want ErrCorrupt", err)
	}
}

func TestReaderGuards(t *testing.T) {
	// A huge declared count must fail before any allocation is sized
	// from it.
	w := NewWriter()
	w.Uvarint(1 << 40)
	r := NewReader(w.Bytes())
	if n := r.Count(1); n != 0 || r.Err() == nil {
		t.Fatalf("Count accepted an impossible element count (n=%d err=%v)", n, r.Err())
	}

	// Int overflow guard.
	w = NewWriter()
	w.Uvarint(math.MaxUint64)
	r = NewReader(w.Bytes())
	if r.Int(); r.Err() == nil {
		t.Fatal("Int accepted a value exceeding MaxInt")
	}

	// Bool byte other than 0/1.
	r = NewReader([]byte{2})
	if r.Bool(); r.Err() == nil {
		t.Fatal("Bool accepted byte 2")
	}

	// Sticky error: reads after a failure return zero values, and Finish
	// reports the original failure.
	r = NewReader([]byte{0xff}) // truncated uvarint continuation
	_ = r.Uvarint()
	first := r.Err()
	if first == nil {
		t.Fatal("truncated uvarint not detected")
	}
	if got := r.U64(); got != 0 {
		t.Fatalf("read after failure returned %d", got)
	}
	if err := r.Finish(); !errors.Is(err, ErrCorrupt) || err != first {
		t.Fatalf("Finish = %v, want the first error", err)
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	_ = r.U8()
	if err := r.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Finish with trailing bytes = %v, want ErrCorrupt", err)
	}
}

func TestOversizedContainerRejected(t *testing.T) {
	if _, err := Decode(make([]byte, MaxLen+1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized container: err = %v, want ErrCorrupt", err)
	}
}
