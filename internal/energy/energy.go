// Package energy implements the performance and energy metrics of thesis
// §3.3 and the 0.25 µm technology parameters of §4.1.4.
//
// The communication energy is Eq. 3,
//
//	E_communication = N_packets · S · E_bit,
//
// with N_packets the total number of packet transmissions in the network,
// S the average packet size in bits, and E_bit the per-bit link energy
// from the technology library. The round duration is Eq. 2,
//
//	T_R = N_packets/round · S / f,
//
// with f the link frequency. Computation energy is explicitly out of scope
// (§3.3.2): the thesis compares communication schemes.
package energy

import "fmt"

// Technology holds the electrical parameters of one interconnect
// implementation.
type Technology struct {
	Name string
	// LinkHz is the maximum working frequency of one link (or of the bus).
	LinkHz float64
	// JoulePerBit is the energy dissipated per transmitted bit.
	JoulePerBit float64
}

// The 0.25 µm parameters reported in §4.1.4 for the M320C50-based chip.
var (
	// NoCLink025 is a tile-to-tile link: 381 MHz, 2.4e-10 J/bit.
	NoCLink025 = Technology{Name: "noc-link-0.25um", LinkHz: 381e6, JoulePerBit: 2.4e-10}
	// Bus025 is the chip-length shared bus: 43 MHz, 21.6e-10 J/bit.
	Bus025 = Technology{Name: "bus-0.25um", LinkHz: 43e6, JoulePerBit: 21.6e-10}
)

// Accounting accumulates the traffic of one simulation run.
type Accounting struct {
	// Transmissions is N_packets: every copy of every message placed on
	// any link, including copies that are later upset or dropped — the
	// energy was spent regardless.
	Transmissions int
	// Bits is the total number of bits those transmissions carried.
	Bits int
}

// AddTransmission records one packet copy of sizeBits placed on a link.
func (a *Accounting) AddTransmission(sizeBits int) {
	a.Transmissions++
	a.Bits += sizeBits
}

// AddTransmissions records copies packet copies of sizeBits each.
func (a *Accounting) AddTransmissions(copies, sizeBits int) {
	a.Transmissions += copies
	a.Bits += copies * sizeBits
}

// AvgPacketBits returns S, the average packet size in bits.
func (a Accounting) AvgPacketBits() float64 {
	if a.Transmissions == 0 {
		return 0
	}
	return float64(a.Bits) / float64(a.Transmissions)
}

// EnergyJ returns E_communication in joules under tech (Eq. 3). Using the
// exact bit count is equivalent to N_packets·S with S the empirical mean.
func (a Accounting) EnergyJ(tech Technology) float64 {
	return float64(a.Bits) * tech.JoulePerBit
}

// EnergyPerBitJ returns joules per *useful* payload bit delivered, the
// Fig. 4-4/4-6 y-axis. deliveredBits is the application-level payload
// successfully received.
func (a Accounting) EnergyPerBitJ(tech Technology, deliveredBits int) float64 {
	if deliveredBits <= 0 {
		return 0
	}
	return a.EnergyJ(tech) / float64(deliveredBits)
}

// RoundDuration returns T_R in seconds (Eq. 2) for a run averaging
// packetsPerRound transmissions per link round of avgPacketBits bits each.
func RoundDuration(packetsPerRound, avgPacketBits float64, tech Technology) float64 {
	if tech.LinkHz <= 0 {
		return 0
	}
	return packetsPerRound * avgPacketBits / tech.LinkHz
}

// LatencySeconds converts a latency in rounds to seconds given the round
// duration.
func LatencySeconds(rounds float64, roundDuration float64) float64 {
	return rounds * roundDuration
}

// EnergyDelayProduct returns the energy×delay figure of merit the thesis
// quotes in §4.1.4 (J·s per bit): energy per bit times transfer latency.
func EnergyDelayProduct(energyPerBitJ, latencySeconds float64) float64 {
	return energyPerBitJ * latencySeconds
}

// String implements fmt.Stringer.
func (a Accounting) String() string {
	return fmt.Sprintf("transmissions=%d bits=%d (S=%.1f b/pkt)",
		a.Transmissions, a.Bits, a.AvgPacketBits())
}
