// Package packet defines the wire format of stochastic-NoC packets and the
// data-upset error models of thesis Chapter 2.
//
// A packet carries a globally unique message ID (used by tiles to
// deduplicate the many gossip copies in flight), source and destination
// tile IDs, an application-defined kind tag, a TTL, an opaque payload and a
// CRC-16 over all immutable fields. The TTL is deliberately excluded from
// CRC coverage: it is decremented at every hop, and covering it would force
// every router to re-encode the checksum, which the Fig. 3-5 tile does not
// do.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crc"
)

// TileID identifies a tile in the network. The value Broadcast addresses
// every tile (used by pure-dissemination workloads such as Fig. 3-1).
//
// TileID is 32 bits in memory so that mega-meshes (512×512 and beyond)
// are addressable, but the wire format of Chapter 2 carries 16-bit tile
// addresses: frames can only name tiles up to MaxWireTile, and Encode
// rejects packets beyond it. Fabrics larger than the wire address space
// run on the analytic transmission path, which never serializes a frame.
type TileID uint32

// Broadcast is the destination value meaning "every tile". On the wire it
// is carried as wireBroadcast (the all-ones 16-bit address).
const Broadcast TileID = 0xffffffff

// MaxWireTile is the largest tile ID a wire frame can address: the
// 16-bit address space minus the broadcast sentinel.
const MaxWireTile TileID = 0xfffe

// wireBroadcast is the on-wire encoding of Broadcast.
const wireBroadcast uint16 = 0xffff

// MsgID is a network-unique message identity. Tiles deduplicate on it, so
// two packets with equal MsgID must be copies of the same logical message.
type MsgID uint64

// Kind tags a packet with an application-defined message class (e.g. "work
// request", "partial sum", "MDCT frame").
type Kind uint8

// Packet is one logical message as it travels through the NoC.
type Packet struct {
	ID      MsgID
	Src     TileID
	Dst     TileID
	Kind    Kind
	TTL     uint8
	Payload []byte
}

// headerLen is the encoded size of the fixed header:
// ID(8) + Src(2) + Dst(2) + Kind(1) + TTL(1) + payload length(2).
const headerLen = 16

// crcLen is the trailing checksum size.
const crcLen = 2

// MaxPayload is the largest payload Encode accepts.
const MaxPayload = 0xffff

// ErrTooLarge is returned by Encode for oversized payloads.
var ErrTooLarge = errors.New("packet: payload exceeds MaxPayload")

// ErrTruncated is returned by Decode for inputs shorter than a header.
var ErrTruncated = errors.New("packet: truncated frame")

// ErrTileUnaddressable is returned by Encode when a packet's source or
// destination exceeds the 16-bit wire address space (MaxWireTile).
var ErrTileUnaddressable = errors.New("packet: tile ID exceeds the 16-bit wire address space")

// ErrCRC is returned by Decode when the checksum does not match; this is
// how a tile observes a data upset.
var ErrCRC = errors.New("packet: CRC mismatch (data upset)")

// EncodedLen returns the wire size in bytes of a packet with the given
// payload length.
func EncodedLen(payloadLen int) int { return headerLen + payloadLen + crcLen }

// SizeBits returns the wire size in bits of p, the S term of the energy
// model E = N_packets * S * E_bit (thesis Eq. 3).
func (p *Packet) SizeBits() int { return 8 * EncodedLen(len(p.Payload)) }

// String implements fmt.Stringer for debugging and traces.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d %d->%d kind=%d ttl=%d len=%d}",
		p.ID, p.Src, p.Dst, p.Kind, p.TTL, len(p.Payload))
}

// Encode serializes p into a wire frame: header, payload, CRC-16 computed
// over everything except the TTL byte.
func Encode(p *Packet) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return nil, ErrTooLarge
	}
	buf := make([]byte, EncodedLen(len(p.Payload)))
	if err := EncodeTo(buf, p); err != nil {
		return nil, err
	}
	return buf, nil
}

// ErrBadFrameLen is returned by EncodeTo when dst is not exactly
// EncodedLen(len(p.Payload)) bytes.
var ErrBadFrameLen = errors.New("packet: destination length != EncodedLen")

// EncodeTo serializes p into dst, which must be exactly
// EncodedLen(len(p.Payload)) bytes. It is the allocation-free form of
// Encode, used by forwarding engines that recycle frame buffers.
func EncodeTo(dst []byte, p *Packet) error {
	if len(p.Payload) > MaxPayload {
		return ErrTooLarge
	}
	if len(dst) != EncodedLen(len(p.Payload)) {
		return ErrBadFrameLen
	}
	src, err := wireTile(p.Src)
	if err != nil {
		return err
	}
	dstAddr, err := wireTile(p.Dst)
	if err != nil {
		return err
	}
	buf := dst
	binary.BigEndian.PutUint64(buf[0:8], uint64(p.ID))
	binary.BigEndian.PutUint16(buf[8:10], src)
	binary.BigEndian.PutUint16(buf[10:12], dstAddr)
	buf[12] = byte(p.Kind)
	buf[13] = p.TTL
	binary.BigEndian.PutUint16(buf[14:16], uint16(len(p.Payload)))
	copy(buf[headerLen:], p.Payload)
	sum := frameCRC(buf)
	binary.BigEndian.PutUint16(buf[len(buf)-crcLen:], sum)
	return nil
}

// wireTile converts a tile ID to its 16-bit wire address.
func wireTile(t TileID) (uint16, error) {
	if t == Broadcast {
		return wireBroadcast, nil
	}
	if t > MaxWireTile {
		return 0, ErrTileUnaddressable
	}
	return uint16(t), nil
}

// frameCRC computes the CRC-16 over a frame, skipping the mutable TTL byte
// and the checksum slot itself.
func frameCRC(frame []byte) uint16 {
	body := frame[:len(frame)-crcLen]
	s := crc.NewShiftRegister16()
	// Cheaper than allocating a TTL-less copy: clock the bytes around it.
	for i, b := range body {
		if i == 13 { // TTL byte
			continue
		}
		s.ClockByte(b)
	}
	return s.Sum()
}

// memTile converts a 16-bit wire address back to a tile ID.
func memTile(w uint16) TileID {
	if w == wireBroadcast {
		return Broadcast
	}
	return TileID(w)
}

// Decode parses a wire frame, verifying the CRC. A CRC failure returns
// (nil, ErrCRC): the caller (tile) silently discards the frame — the core
// behaviour of the error-detection/multiple-transmission scheme.
func Decode(frame []byte) (*Packet, error) {
	p := &Packet{}
	if err := DecodeInto(p, frame); err != nil {
		return nil, err
	}
	if p.Payload != nil {
		owned := make([]byte, len(p.Payload))
		copy(owned, p.Payload)
		p.Payload = owned
	}
	return p, nil
}

// DecodeInto parses a wire frame into dst without allocating, with the
// same validation as Decode. dst.Payload ALIASES the frame's payload
// bytes (nil for an empty payload): the caller must copy it before the
// frame is mutated or reused. Forwarding engines that pool frame buffers
// use this to defer the payload copy until a packet is actually kept.
func DecodeInto(dst *Packet, frame []byte) error {
	if len(frame) < headerLen+crcLen {
		return ErrTruncated
	}
	payloadLen := int(binary.BigEndian.Uint16(frame[14:16]))
	if len(frame) != EncodedLen(payloadLen) {
		return ErrTruncated
	}
	want := binary.BigEndian.Uint16(frame[len(frame)-crcLen:])
	if frameCRC(frame) != want {
		return ErrCRC
	}
	dst.ID = MsgID(binary.BigEndian.Uint64(frame[0:8]))
	dst.Src = memTile(binary.BigEndian.Uint16(frame[8:10]))
	dst.Dst = memTile(binary.BigEndian.Uint16(frame[10:12]))
	dst.Kind = Kind(frame[12])
	dst.TTL = frame[13]
	if payloadLen > 0 {
		dst.Payload = frame[headerLen : headerLen+payloadLen : headerLen+payloadLen]
	} else {
		dst.Payload = nil
	}
	return nil
}
