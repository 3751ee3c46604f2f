package bus

import (
	"errors"
	"math"
	"testing"

	"repro/internal/energy"
)

func TestSingleTransfer(t *testing.T) {
	msgs := []Message{{Src: 0, Bits: 430}}
	res, err := Simulate(msgs, energy.Bus025)
	if err != nil {
		t.Fatal(err)
	}
	want := 430.0 / 43e6 // 10 µs
	if math.Abs(res.Makespan-want) > 1e-12 {
		t.Fatalf("Makespan = %v, want %v", res.Makespan, want)
	}
	if math.Abs(res.AvgLatency-want) > 1e-12 {
		t.Fatalf("AvgLatency = %v", res.AvgLatency)
	}
	if math.Abs(res.EnergyJ-430*21.6e-10) > 1e-15 {
		t.Fatalf("EnergyJ = %v", res.EnergyJ)
	}
	if math.Abs(res.Utilization-1) > 1e-9 {
		t.Fatalf("Utilization = %v", res.Utilization)
	}
}

func TestSerialization(t *testing.T) {
	// Two simultaneous requests serialize: the second waits for the first.
	msgs := []Message{{Src: 0, Bits: 43}, {Src: 1, Bits: 43}}
	res, err := Simulate(msgs, energy.Bus025)
	if err != nil {
		t.Fatal(err)
	}
	per := 43.0 / 43e6
	if math.Abs(res.Makespan-2*per) > 1e-12 {
		t.Fatalf("Makespan = %v, want %v", res.Makespan, 2*per)
	}
	if math.Abs(res.MaxLatency-2*per) > 1e-12 {
		t.Fatalf("MaxLatency = %v, want %v (head-of-line blocking)", res.MaxLatency, 2*per)
	}
}

// burst is count messages of bits size each, issued by modules
// 0..mods-1 round-robin, all ready at t = 0: the worst case a parallel
// application presents to a shared medium.
func burst(count, mods, bits int) []Message {
	msgs := make([]Message, count)
	for i := range msgs {
		msgs[i] = Message{Src: i % mods, Bits: bits}
	}
	return msgs
}

func TestLatencyGrowsWithContention(t *testing.T) {
	// The §1 motivation: performance decreases drastically as module
	// count grows, because of contention for the shared medium.
	small, err := Simulate(burst(4, 4, 256), energy.Bus025)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Simulate(burst(64, 64, 256), energy.Bus025)
	if err != nil {
		t.Fatal(err)
	}
	if large.AvgLatency <= small.AvgLatency*4 {
		t.Fatalf("contention wall absent: %v vs %v", large.AvgLatency, small.AvgLatency)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Three modules each with one message at t=0: all three get service
	// within 3 slots; max latency is exactly 3 transfer times.
	msgs := []Message{{Src: 0, Bits: 100}, {Src: 1, Bits: 100}, {Src: 2, Bits: 100}}
	res, err := Simulate(msgs, energy.Bus025)
	if err != nil {
		t.Fatal(err)
	}
	per := 100.0 / 43e6
	if math.Abs(res.MaxLatency-3*per) > 1e-12 {
		t.Fatalf("MaxLatency = %v, want %v", res.MaxLatency, 3*per)
	}
}

func TestIdleGapAdvancesTime(t *testing.T) {
	msgs := []Message{
		{Src: 0, Bits: 43, Ready: 0},
		{Src: 0, Bits: 43, Ready: 1.0}, // 1s later: bus idles in between
	}
	res, err := Simulate(msgs, energy.Bus025)
	if err != nil {
		t.Fatal(err)
	}
	per := 43.0 / 43e6
	if math.Abs(res.Makespan-(1.0+per)) > 1e-9 {
		t.Fatalf("Makespan = %v", res.Makespan)
	}
	if res.Utilization > 0.01 {
		t.Fatalf("Utilization = %v, want tiny", res.Utilization)
	}
	// No queueing: both messages see pure transfer latency.
	if math.Abs(res.MaxLatency-per) > 1e-12 {
		t.Fatalf("MaxLatency = %v, want %v", res.MaxLatency, per)
	}
}

func TestEmptyWorkload(t *testing.T) {
	if _, err := Simulate(nil, energy.Bus025); !errors.Is(err, ErrNoMessages) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadTechnology(t *testing.T) {
	if _, err := Simulate([]Message{{Bits: 1}}, energy.Technology{}); err == nil {
		t.Fatal("zero-frequency technology accepted")
	}
}

func TestNegativeModuleRejected(t *testing.T) {
	if _, err := Simulate([]Message{{Src: -1, Bits: 1}}, energy.Bus025); err == nil {
		t.Fatal("negative module accepted")
	}
}

func TestEnergyIndependentOfContention(t *testing.T) {
	// Energy is per-bit: the same bits cost the same regardless of
	// scheduling.
	a, _ := Simulate(burst(10, 1, 64), energy.Bus025)
	b, _ := Simulate(burst(10, 10, 64), energy.Bus025)
	if a.EnergyJ != b.EnergyJ {
		t.Fatalf("energy differs with contention: %v vs %v", a.EnergyJ, b.EnergyJ)
	}
}
