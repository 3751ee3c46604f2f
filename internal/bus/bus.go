// Package bus models the traditional shared-bus interconnect the thesis
// compares against in §4.1.4: all IP modules hang off one chip-length bus
// with an arbiter enforcing mutual exclusion.
//
// The published 0.25 µm parameters are used: the bus runs at 43 MHz and
// dissipates 21.6e-10 J per transmitted bit (the NoC link, by contrast,
// runs at 381 MHz at 2.4e-10 J/bit because it is short). Arbitration
// overhead is ignored, as in the thesis ("usually ... negligible when
// compared to the time and the power needed by the data transmissions").
//
// Because the bus is a broadcast medium, each logical message is
// transmitted exactly once — the bus' energy advantage — but every
// transfer serializes behind every other — its latency disadvantage,
// which grows with module count (the contention wall motivating NoCs).
package bus

import (
	"errors"
	"sort"

	"repro/internal/energy"
)

// Message is one bus transfer request.
type Message struct {
	// Src is the requesting module (used for round-robin fairness).
	Src int
	// Bits is the transfer size, including framing.
	Bits int
	// Ready is the time (seconds) at which the message enters Src's
	// output queue.
	Ready float64
}

// Result summarizes one bus simulation.
type Result struct {
	// Makespan is the time the last transfer completes.
	Makespan float64
	// AvgLatency and MaxLatency are per-message queueing + transfer
	// latencies.
	AvgLatency, MaxLatency float64
	// EnergyJ is total transmission energy.
	EnergyJ float64
	// Bits is the total bits moved.
	Bits int
	// Utilization is the busy fraction of the bus over the makespan.
	Utilization float64
}

// ErrNoMessages is returned by Simulate for an empty workload.
var ErrNoMessages = errors.New("bus: empty workload")

// Simulate runs the workload over a single shared bus of technology tech
// with round-robin arbitration and returns the timing/energy summary.
func Simulate(msgs []Message, tech energy.Technology) (Result, error) {
	if len(msgs) == 0 {
		return Result{}, ErrNoMessages
	}
	if tech.LinkHz <= 0 {
		return Result{}, errors.New("bus: technology frequency must be positive")
	}

	// Per-module FIFO queues, stably sorted by ready time.
	maxMod := 0
	for _, m := range msgs {
		if m.Src < 0 {
			return Result{}, errors.New("bus: negative module index")
		}
		if m.Src > maxMod {
			maxMod = m.Src
		}
	}
	queues := make([][]Message, maxMod+1)
	for _, m := range msgs {
		queues[m.Src] = append(queues[m.Src], m)
	}
	for i := range queues {
		q := queues[i]
		sort.SliceStable(q, func(a, b int) bool { return q[a].Ready < q[b].Ready })
	}

	var (
		now       float64
		busy      float64
		latSum    float64
		latMax    float64
		bits      int
		remaining = len(msgs)
		rr        int // round-robin pointer
	)
	for remaining > 0 {
		// Find the next module, in round-robin order from rr, with a
		// message ready at `now`. If none, advance time to the earliest
		// ready instant.
		granted := -1
		for off := 0; off < len(queues); off++ {
			mod := (rr + off) % len(queues)
			if len(queues[mod]) > 0 && queues[mod][0].Ready <= now {
				granted = mod
				break
			}
		}
		if granted < 0 {
			earliest := -1.0
			for _, q := range queues {
				if len(q) > 0 && (earliest < 0 || q[0].Ready < earliest) {
					earliest = q[0].Ready
				}
			}
			now = earliest
			continue
		}
		m := queues[granted][0]
		queues[granted] = queues[granted][1:]
		rr = (granted + 1) % len(queues)

		dur := float64(m.Bits) / tech.LinkHz
		done := now + dur
		lat := done - m.Ready
		latSum += lat
		if lat > latMax {
			latMax = lat
		}
		busy += dur
		bits += m.Bits
		now = done
		remaining--
	}

	res := Result{
		Makespan:   now,
		AvgLatency: latSum / float64(len(msgs)),
		MaxLatency: latMax,
		EnergyJ:    float64(bits) * tech.JoulePerBit,
		Bits:       bits,
	}
	if now > 0 {
		res.Utilization = busy / now
	}
	return res, nil
}
