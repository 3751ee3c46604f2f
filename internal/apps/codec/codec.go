// Package codec provides the compact binary payload encodings the case
// study applications put inside NoC packets. All encodings are big-endian
// and fixed-width, as a hardware message format would be.
package codec

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShort is returned when a payload is too short to decode.
var ErrShort = errors.New("codec: short payload")

// Writer appends fixed-width fields to a payload buffer.
type Writer struct{ buf []byte }

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U16 appends a uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// F64 appends a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) *Writer { return w.U64(math.Float64bits(v)) }

// Raw appends bytes verbatim; pair with Reader.Raw and an out-of-band
// length (or trailing position).
func (w *Writer) Raw(b []byte) *Writer {
	w.buf = append(w.buf, b...)
	return w
}

// C128 appends a complex128 as two float64s.
func (w *Writer) C128(v complex128) *Writer {
	return w.F64(real(v)).F64(imag(v))
}

// Reader consumes fixed-width fields from a payload.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U16 reads a uint16 (0 after an error).
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Raw reads n bytes verbatim (nil after an error).
func (r *Reader) Raw(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Rest returns all remaining bytes.
func (r *Reader) Rest() []byte { return r.Raw(len(r.buf) - r.off) }

// C128 reads a complex128.
func (r *Reader) C128() complex128 {
	re := r.F64()
	im := r.F64()
	return complex(re, im)
}
