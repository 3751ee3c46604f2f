// Package crc implements the cyclic redundancy checks used to detect data
// upsets in stochastic NoC packets (thesis §3.2.2).
//
// Two codes are provided:
//
//   - CRC-16-CCITT, the cheap code the thesis argues a tile would
//     realistically implement ("CRC encoders and decoders are easy to
//     implement in hardware, as they only require one shift register"),
//     as ShiftRegister16, a bit-serial model (one bit per step) of the
//     hardware structure of Fig. 3-5, which the packet frames use; and
//   - CRC-32 (IEEE 802.3) for the checkpoint container, as hash/crc32's
//     IEEE code (carry-less multiply on amd64, slicing-by-8 tables on
//     platforms without CRC instructions, 386 among them; the same
//     polynomial and the same bytes everywhere).
//
// The package's tests hold each against an independent form: the
// register against a table-driven CRC-16, hash/crc32 against a
// bit-serial CRC-32.
package crc

import "hash/crc32"

// CCITT polynomial x^16 + x^12 + x^5 + 1, MSB-first convention.
const ccittPoly = 0x1021

// Checksum32 returns the CRC-32 (IEEE 802.3) checksum of data:
// crc32.ChecksumIEEE.
func Checksum32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Update32 extends sum, the Checksum32 of some bytes, over data: the
// Checksum32 of a concatenation is Update32 applied piece by piece,
// starting from 0.
func Update32(sum uint32, data []byte) uint32 { return crc32.Update(sum, crc32.IEEETable, data) }

// ShiftRegister16 is a bit-serial CRC-16-CCITT engine modeling the single
// 16-bit linear-feedback shift register a tile's CRC circuit consists of.
// Bits are clocked in MSB-first, one per ClockBit call, exactly as they
// would arrive on a serial link.
type ShiftRegister16 struct {
	reg uint16
}

// NewShiftRegister16 returns an engine preset to the 0xffff initial state
// (the "CCITT-FALSE" variant common in hardware link layers).
func NewShiftRegister16() *ShiftRegister16 {
	return &ShiftRegister16{reg: 0xffff}
}

// ClockBit shifts one input bit into the register.
func (s *ShiftRegister16) ClockBit(bit uint8) {
	feedback := (s.reg>>15)&1 ^ uint16(bit&1)
	s.reg <<= 1
	if feedback != 0 {
		s.reg ^= ccittPoly
	}
}

// ClockByte shifts the eight bits of b into the register, MSB first.
func (s *ShiftRegister16) ClockByte(b byte) {
	for i := 7; i >= 0; i-- {
		s.ClockBit(b >> uint(i))
	}
}

// Sum returns the current register contents (the checksum after all data
// bits have been clocked in).
func (s *ShiftRegister16) Sum() uint16 { return s.reg }
