package huffman

import "errors"

// ErrEOS is returned when a BitReader runs out of bits.
var ErrEOS = errors.New("huffman: end of bitstream")

// BitWriter accumulates an MSB-first bitstream.
type BitWriter struct {
	buf  []byte
	nbit int // bits used in the last byte (0..7; 0 = byte boundary)
}

// WriteBits appends the low `n` bits of v, MSB first. n must be 0..64.
func (w *BitWriter) WriteBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(uint8(v >> uint(i) & 1))
	}
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b uint8) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << uint(7-w.nbit)
	}
	w.nbit = (w.nbit + 1) % 8
}

// Len returns the number of bits written.
func (w *BitWriter) Len() int {
	if w.nbit == 0 {
		return 8 * len(w.buf)
	}
	return 8*(len(w.buf)-1) + w.nbit
}

// Bytes returns the stream padded with zero bits to a byte boundary.
func (w *BitWriter) Bytes() []byte { return w.buf }

// BitReader consumes an MSB-first bitstream.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader wraps a byte slice.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint8, error) {
	if r.pos >= 8*len(r.buf) {
		return 0, ErrEOS
	}
	b := r.buf[r.pos/8] >> uint(7-r.pos%8) & 1
	r.pos++
	return b, nil
}

// ReadBits returns the next n bits as an integer, MSB first. n must be
// 0..64.
func (r *BitReader) ReadBits(n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}
