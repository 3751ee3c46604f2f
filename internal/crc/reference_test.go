package crc

// The independent forms the tests hold the live codes to.

// ieeePoly is the IEEE 802.3 polynomial, reflected (LSB-first)
// convention, as used by Ethernet and hash/crc32.
const ieeePoly = 0xedb88320

// ccittTable is the byte-at-a-time table of the CCITT polynomial.
var ccittTable = func() (table [256]uint16) {
	for i := range table {
		c16 := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if c16&0x8000 != 0 {
				c16 = c16<<1 ^ ccittPoly
			} else {
				c16 <<= 1
			}
		}
		table[i] = c16
	}
	return table
}()

// checksum16 returns the CRC-16-CCITT checksum of data with initial value
// 0xffff, table-driven: the reference ShiftRegister16 is held to.
func checksum16(data []byte) uint16 {
	crc := uint16(0xffff)
	for _, b := range data {
		crc = crc<<8 ^ ccittTable[byte(crc>>8)^b]
	}
	return crc
}

// checksumSerial16 clocks data through a fresh ShiftRegister16, as the
// packet frames do, and returns the sum.
func checksumSerial16(data []byte) uint16 {
	s := NewShiftRegister16()
	for _, b := range data {
		s.ClockByte(b)
	}
	return s.Sum()
}

// checksumSerial32 computes the CRC-32 of data bit-serially (LSB-first,
// reflected): the reference Checksum32 is held to.
func checksumSerial32(data []byte) uint32 {
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
