// Package snapshot defines the simulator's on-disk container format: a
// versioned, CRC-guarded binary envelope. It frames two kinds of file:
//
//   - checkpoints, which carry the complete state of an interrupted run
//     so it can be resumed bit-identically (see DESIGN.md, "Checkpoint
//     format & invariants"): sections SecSim, SecCore and SecMetrics;
//   - result-cache entries of the nocsimd daemon (internal/service): one
//     SecResult section holding a finished job's canonical request,
//     terminal status and JSONL series.
//
// The container is a flat sequence of sections:
//
//	magic "SNOC" (4) | version u16 BE (2) | sections... | CRC-32 BE (4)
//	section: id uvarint | length uvarint | payload
//
// Each subsystem owns one section and encodes its payload with the
// primitive codec below. The trailing CRC-32 (IEEE 802.3, computed by
// crc.Checksum32, which is hash/crc32's code and so runs at memory speed)
// covers every preceding byte, so a truncated or bit-flipped file is
// rejected before any section is interpreted. Both kinds of file are
// written by WriteFile and read by ReadFile. Neither copies a container
// more than once: Encoder.Close streams the sections out as they are,
// ReadFile reads a file into one buffer of its size, and
// Reader.ReadBytesNoCopy lets a reader take a byte string out of that
// buffer without a copy.
//
// Decoding is hardened against hostile input (FuzzRestore): every length
// and count field is validated against the bytes actually present before
// any allocation is sized from it, so corrupt data yields an error
// wrapping ErrCorrupt — never a panic or an attacker-chosen allocation.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/crc"
)

// Version is the container format version this package writes. Decoders
// reject versions they do not know (there is no cross-version migration:
// a checkpoint is a short-lived artifact of one simulator build, and a
// cache entry that does not decode is re-simulated).
const Version = 1

// MaxLen bounds the size of a container a Decoder will read (256 MiB —
// far below an OOM, but with room for mega-mesh state: a churning
// 1024×1024 fabric serializes to ~52 MiB of per-tile RNG and traffic
// state).
const MaxLen = 256 << 20

// magic identifies a stochastic-NoC checkpoint container.
var magic = [4]byte{'S', 'N', 'O', 'C'}

// SectionID names one section of a container. IDs are a closed registry
// (this package's constants) so independently developed sections cannot
// collide; 0 is reserved.
type SectionID uint64

// The registered sections.
const (
	// SecCore is the round engine's complete state (internal/core).
	SecCore SectionID = 1
	// SecMetrics is the metrics recorder's partial per-round series
	// (internal/metrics).
	SecMetrics SectionID = 2
	// SecSim is the Monte Carlo runner's replica metadata (internal/sim).
	SecSim SectionID = 3
	// SecResult is a result-cache entry (internal/service): the canonical
	// request JSON, the terminal status JSON and the JSONL series, each a
	// length-prefixed byte string.
	SecResult SectionID = 4
)

// ErrCorrupt is wrapped by every decoding error caused by malformed,
// truncated or checksum-failing input. Callers that only need "is this
// checkpoint usable" can errors.Is against it.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated data")

// ErrVersion is wrapped by decoding errors caused by an unknown container
// version — the data may be perfectly intact, just written by a different
// simulator build.
var ErrVersion = errors.New("snapshot: unsupported container version")

// corruptf builds an ErrCorrupt-wrapping error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Writer accumulates one section's payload. The zero value is ready to
// use; all methods append to an internal buffer, so encoding never fails
// mid-way — errors surface only at Encoder.Close, when the container is
// flushed to the underlying io.Writer.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty standalone Writer, for callers that need a
// raw payload outside a container (digest computation, tests).
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated payload. The slice aliases the Writer's
// buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Grow reserves room for n more bytes, so a payload of known size is
// written with one allocation.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int appends a non-negative int as a uvarint. Negative values are a
// programming error in the encoder and panic rather than corrupting the
// stream silently.
func (w *Writer) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("snapshot: Writer.Int(%d) negative", v))
	}
	w.Uvarint(uint64(v))
}

// F64 appends a float64 as its IEEE 754 bit pattern (big-endian), which
// round-trips every value including NaNs bit-exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// WriteBytes appends a length-prefixed byte string.
func (w *Writer) WriteBytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// WriteRaw appends b verbatim, with no length prefix. It exists for
// callers that splice an already-encoded payload into a section (tests,
// checkpoint repair tools) or write one byte string in pieces after its
// Uvarint length (the result cache); normal encoding should use
// WriteBytes.
func (w *Writer) WriteRaw(b []byte) { w.buf = append(w.buf, b...) }

// Encoder writes one container to an io.Writer. Sections are appended
// with Section and the container — header, sections, trailing CRC — is
// flushed by Close.
type Encoder struct {
	w        io.Writer
	sections []encSection
}

type encSection struct {
	id SectionID
	sw *Writer
}

// NewEncoder returns an Encoder that will flush a container to w on
// Close.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Section starts a new section and returns the Writer for its payload.
// The payload may be written until Close; sections are laid out in the
// order they were started. Starting two sections with the same id is a
// programming error and panics.
func (e *Encoder) Section(id SectionID) *Writer {
	if id == 0 {
		panic("snapshot: SectionID 0 is reserved")
	}
	for _, s := range e.sections {
		if s.id == id {
			panic(fmt.Sprintf("snapshot: duplicate section id %d", id))
		}
	}
	sw := NewWriter()
	e.sections = append(e.sections, encSection{id: id, sw: sw})
	return sw
}

// Close writes the container to the underlying io.Writer: the header and
// each section's id and length from one small buffer, each payload
// straight from its section Writer, and the CRC, computed along the way.
// The container is never assembled in memory.
func (e *Encoder) Close() error {
	var sum uint32
	head := append(make([]byte, 0, len(magic)+2+2*binary.MaxVarintLen64), magic[:]...)
	head = binary.BigEndian.AppendUint16(head, Version)
	for _, s := range e.sections {
		head = binary.AppendUvarint(head, uint64(s.id))
		head = binary.AppendUvarint(head, uint64(len(s.sw.buf)))
		for _, b := range [][]byte{head, s.sw.buf} {
			sum = crc.Update32(sum, b)
			if _, err := e.w.Write(b); err != nil {
				return err
			}
		}
		head = head[:0]
	}
	// What is left of head (all of it, for a container without sections)
	// goes out with the CRC.
	sum = crc.Update32(sum, head)
	_, err := e.w.Write(binary.BigEndian.AppendUint32(head, sum))
	return err
}

// WriteFile writes the container fill builds to path atomically: it goes
// to a temporary file beside path that is renamed into place once
// complete, so an interrupted write leaves the previous file intact,
// never a torn one. path's directory must exist.
func WriteFile(path string, fill func(*Encoder)) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	enc := NewEncoder(tmp)
	fill(enc)
	err = enc.Close()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Decoder parses one container: it reads the input fully (bounded by
// MaxLen), verifies the magic, version and trailing CRC-32, and indexes
// the sections. Individual sections are then read with Section.
type Decoder struct {
	sections map[SectionID][]byte
}

// NewDecoder reads a complete container from r and validates its
// envelope. All returned errors wrap ErrCorrupt (malformed data) or
// ErrVersion (intact data from an unknown format version).
func NewDecoder(r io.Reader) (*Decoder, error) {
	data, err := io.ReadAll(io.LimitReader(r, MaxLen+1))
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	return Decode(data)
}

// ReadFile reads the container file at path, the counterpart of WriteFile,
// and validates its envelope like NewDecoder. The file is read into *buf
// in one read, and *buf is grown only if the file does not fit, so a
// caller reading many files can recycle one buffer; the sections alias
// it. A file longer than MaxLen is not read in full. A file that cannot
// be read is an *fs.PathError, one that does not decode wraps ErrCorrupt
// or ErrVersion.
func ReadFile(path string, buf *[]byte) (*Decoder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(min(fi.Size(), MaxLen)) + 1 // one more byte: room to see EOF
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	data := (*buf)[:n]
	m, err := io.ReadFull(f, data)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return Decode(data[:m])
}

// Decode parses a complete in-memory container (the io.Reader-free form
// NewDecoder, ReadFile and the fuzz harness share).
func Decode(data []byte) (*Decoder, error) {
	if len(data) > MaxLen {
		return nil, corruptf("container exceeds MaxLen (%d bytes)", len(data))
	}
	const headerLen = len(magic) + 2
	const crcLen = 4
	if len(data) < headerLen+crcLen {
		return nil, corruptf("container too short (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return nil, corruptf("bad magic %q", data[:4])
	}
	body, tail := data[:len(data)-crcLen], data[len(data)-crcLen:]
	if got, want := crc.Checksum32(body), binary.BigEndian.Uint32(tail); got != want {
		return nil, corruptf("CRC mismatch: computed %08x, stored %08x", got, want)
	}
	// The CRC passed, so the version field is trustworthy: an unknown
	// version is a build mismatch, not corruption.
	if v := binary.BigEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("%w: got %d, this build reads %d", ErrVersion, v, Version)
	}
	d := &Decoder{sections: map[SectionID][]byte{}}
	rest := body[headerLen:]
	for len(rest) > 0 {
		id, n := binary.Uvarint(rest)
		if n <= 0 || id == 0 {
			return nil, corruptf("bad section id")
		}
		rest = rest[n:]
		length, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, corruptf("bad section length")
		}
		rest = rest[n:]
		if length > uint64(len(rest)) {
			return nil, corruptf("section %d declares %d bytes, %d remain", id, length, len(rest))
		}
		if _, dup := d.sections[SectionID(id)]; dup {
			return nil, corruptf("duplicate section %d", id)
		}
		d.sections[SectionID(id)] = rest[:length]
		rest = rest[length:]
	}
	return d, nil
}

// Has reports whether the container carries section id.
func (d *Decoder) Has(id SectionID) bool {
	_, ok := d.sections[id]
	return ok
}

// Section returns a Reader over section id's payload, or an
// ErrCorrupt-wrapping error if the container does not carry it.
func (d *Decoder) Section(id SectionID) (*Reader, error) {
	payload, ok := d.sections[id]
	if !ok {
		return nil, corruptf("missing section %d", id)
	}
	return NewReader(payload), nil
}

// Reader decodes one section payload. Errors are sticky: the first
// malformed field poisons the Reader, every subsequent read returns a
// zero value, and Err (or Finish) reports the failure — so decoders can
// read a whole struct linearly and check once. All reads are
// bounds-checked against the bytes actually present; no count or length
// field can drive an allocation larger than the input itself.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over a raw payload (the standalone form
// used for digests, tests and the fuzz harness).
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// fail records the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corruptf(format, args...)
	}
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Finish returns the first decoding error, or an error if unread bytes
// remain — a strict decoder calls it after the last field so that
// trailing garbage (a sign of a format mismatch) cannot pass silently.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return corruptf("%d trailing bytes after last field", len(r.data)-r.off)
	}
	return nil
}

// take consumes n bytes, or poisons the reader.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail("need %d bytes, %d remain", n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a non-negative int encoded by Writer.Int, rejecting values
// that overflow int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.fail("int field %d overflows", v)
		return 0
	}
	return int(v)
}

// Count reads an element count whose elements each occupy at least
// elemMin encoded bytes, rejecting counts the remaining input cannot
// possibly hold — the guard that keeps a corrupt count from sizing a
// huge allocation.
func (r *Reader) Count(elemMin int) int {
	if elemMin < 1 {
		elemMin = 1
	}
	v := r.Uvarint()
	if v > uint64(r.Remaining()/elemMin) {
		r.fail("count %d exceeds remaining input (%d bytes, >=%d each)", v, r.Remaining(), elemMin)
		return 0
	}
	return int(v)
}

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean, rejecting bytes other than 0 and 1 (a corrupt
// flag byte should fail loudly, not truthy-convert).
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool byte")
		return false
	}
}

// ReadBytes reads a length-prefixed byte string written by WriteBytes,
// returning a copy that does not alias the container buffer.
func (r *Reader) ReadBytes() []byte {
	b := r.ReadBytesNoCopy()
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// ReadBytesNoCopy is ReadBytes without the copy: the returned slice
// aliases the buffer the Reader decodes, stays valid as long as that
// buffer does, and must not be modified.
func (r *Reader) ReadBytesNoCopy() []byte { return r.take(r.Count(1)) }
