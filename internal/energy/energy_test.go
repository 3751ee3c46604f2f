package energy

import (
	"math"
	"strings"
	"testing"
)

func TestAccountingBasics(t *testing.T) {
	var a Accounting
	a.AddTransmission(128)
	a.AddTransmission(256)
	if a.Transmissions != 2 || a.Bits != 384 {
		t.Fatalf("accounting: %+v", a)
	}
	if got := a.AvgPacketBits(); got != 192 {
		t.Fatalf("AvgPacketBits = %v", got)
	}
}

func TestAccountingEmpty(t *testing.T) {
	var a Accounting
	if a.AvgPacketBits() != 0 || a.EnergyJ(NoCLink025) != 0 {
		t.Fatal("empty accounting non-zero")
	}
	if a.EnergyPerBitJ(NoCLink025, 0) != 0 {
		t.Fatal("EnergyPerBitJ with zero delivered bits should be 0")
	}
}

func TestEnergyEq3(t *testing.T) {
	// E = N * S * Ebit: 1000 packets of 512 bits on a 2.4e-10 J/bit link.
	var a Accounting
	for i := 0; i < 1000; i++ {
		a.AddTransmission(512)
	}
	want := 1000 * 512 * 2.4e-10
	if got := a.EnergyJ(NoCLink025); math.Abs(got-want) > 1e-18 {
		t.Fatalf("EnergyJ = %v, want %v", got, want)
	}
}

func TestBusEnergyRatio(t *testing.T) {
	// §4.1.4: the bus spends 21.6/2.4 = 9x more energy per bit.
	ratio := Bus025.JoulePerBit / NoCLink025.JoulePerBit
	if math.Abs(ratio-9) > 1e-9 {
		t.Fatalf("bus/link energy ratio = %v, want 9", ratio)
	}
}

func TestFrequencyRatio(t *testing.T) {
	// §4.1.4: links are 381/43 ≈ 8.86x faster than the bus.
	ratio := NoCLink025.LinkHz / Bus025.LinkHz
	if ratio < 8.5 || ratio > 9.2 {
		t.Fatalf("link/bus frequency ratio = %v", ratio)
	}
}

func TestRoundDurationEq2(t *testing.T) {
	// T_R = Npackets/round * S / f: 4 packets of 256 bits at 381 MHz.
	want := 4.0 * 256 / 381e6
	if got := RoundDuration(4, 256, NoCLink025); math.Abs(got-want) > 1e-15 {
		t.Fatalf("RoundDuration = %v, want %v", got, want)
	}
	if RoundDuration(4, 256, Technology{}) != 0 {
		t.Fatal("zero-frequency technology should yield 0")
	}
}

func TestLatencySeconds(t *testing.T) {
	if got := LatencySeconds(10, 2e-6); math.Abs(got-2e-5) > 1e-12 {
		t.Fatalf("LatencySeconds = %v", got)
	}
}

func TestEnergyDelayProduct(t *testing.T) {
	// The thesis quotes 7e-12 J·s/bit for the NoC vs 133e-12 for the bus.
	got := EnergyDelayProduct(2.4e-10, 0.0292)
	if got <= 0 {
		t.Fatalf("EDP = %v", got)
	}
	if EnergyDelayProduct(0, 5) != 0 {
		t.Fatal("EDP with zero energy should be 0")
	}
}

func TestEnergyPerBit(t *testing.T) {
	a := Accounting{Transmissions: 10, Bits: 10000}
	// 10000 bits transmitted to deliver 1000 useful bits.
	got := a.EnergyPerBitJ(NoCLink025, 1000)
	want := 10000 * 2.4e-10 / 1000
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("EnergyPerBitJ = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	a := Accounting{Transmissions: 3, Bits: 300}
	if s := a.String(); !strings.Contains(s, "transmissions=3") {
		t.Fatalf("String() = %q", s)
	}
}
