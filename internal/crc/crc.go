// Package crc implements the cyclic redundancy checks used to detect data
// upsets in stochastic NoC packets (thesis §3.2.2).
//
// Two codes are provided: CRC-16-CCITT, the cheap code the thesis argues a
// tile would realistically implement ("CRC encoders and decoders are easy
// to implement in hardware, as they only require one shift register"), and
// CRC-32 (IEEE 802.3) for the wider headers used by larger payloads.
//
// Each code comes in two functionally identical implementations:
//
//   - a fast path: a table-driven loop for CRC-16, and hash/crc32's IEEE
//     code for CRC-32 (carry-less multiply on amd64, slicing-by-8 tables
//     on platforms without CRC instructions, 386 among them; the same
//     polynomial and the same bytes everywhere), and
//   - a bit-serial "shift register" model (one bit per step) that mirrors
//     the hardware structure of Fig. 3-5 and is used in tests to validate
//     the fast path against a literal reading of the hardware.
package crc

import "hash/crc32"

// CCITT polynomial x^16 + x^12 + x^5 + 1, MSB-first convention.
const ccittPoly = 0x1021

// IEEE 802.3 polynomial, reflected (LSB-first) convention, as used by
// Ethernet and hash/crc32.
const ieeePoly = 0xedb88320

var ccittTable [256]uint16

func init() {
	for i := 0; i < 256; i++ {
		c16 := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if c16&0x8000 != 0 {
				c16 = c16<<1 ^ ccittPoly
			} else {
				c16 <<= 1
			}
		}
		ccittTable[i] = c16
	}
}

// Checksum16 returns the CRC-16-CCITT checksum of data with initial value
// 0xffff (the "CCITT-FALSE" variant common in hardware link layers).
func Checksum16(data []byte) uint16 {
	crc := uint16(0xffff)
	for _, b := range data {
		crc = crc<<8 ^ ccittTable[byte(crc>>8)^b]
	}
	return crc
}

// Checksum32 returns the CRC-32 (IEEE 802.3) checksum of data:
// crc32.ChecksumIEEE, which ChecksumSerial32 reproduces bit by bit.
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

// NewShiftRegister16 returns an engine preset to the 0xffff initial state.
func NewShiftRegister16() *ShiftRegister16 {
	return &ShiftRegister16{reg: 0xffff}
}

// Reset returns the register to its initial state.
func (s *ShiftRegister16) Reset() { s.reg = 0xffff }

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

// ChecksumSerial16 computes the CRC-16-CCITT of data via the bit-serial
// engine. It is the hardware-faithful reference for Checksum16.
func ChecksumSerial16(data []byte) uint16 {
	s := NewShiftRegister16()
	for _, b := range data {
		s.ClockByte(b)
	}
	return s.Sum()
}

// ChecksumSerial32 computes the CRC-32 of data bit-serially (LSB-first,
// reflected), as the reference for Checksum32.
func ChecksumSerial32(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			bit := (uint32(b)>>uint(i))&1 ^ crc&1
			crc >>= 1
			if bit != 0 {
				crc ^= ieeePoly
			}
		}
	}
	return ^crc
}
