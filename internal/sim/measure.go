package sim

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/stats"
)

// Counts tallies the protocol events of one replica, one field per
// core.EventKind, from the engine's own counts (core.Counters and
// Network.Tally): the run totals a metrics.Recorder's event-count series
// would show, with no recorder installed.
type Counts struct {
	// Created counts messages entering a send buffer (EvCreated).
	Created int
	// Transmissions counts copies driven onto links (EvTransmit).
	Transmissions int
	// CRCRejects counts receptions discarded as scrambled (EvUpset).
	CRCRejects int
	// OverflowDrops counts messages lost to buffer overflow (EvOverflow).
	OverflowDrops int
	// Deliveries counts first-time deliveries to addressed tiles
	// (EvDeliver).
	Deliveries int
	// TTLExpiries counts buffered copies garbage-collected at TTL zero
	// (EvExpire).
	TTLExpiries int
}

// Metrics is one replica's outcome in the units the figures report.
type Metrics struct {
	// Completed reports whether the application-level run finished
	// (false = the MaxRounds guillotine fired).
	Completed bool
	// Rounds is the completion round (the latency the thesis reports).
	Rounds int
	// EnergyJ is the replica's total communication energy.
	EnergyJ float64
	// EnergyPerBitJ is energy per useful delivered payload bit (Eq. 3).
	EnergyPerBitJ float64
	// Counts are the replica's protocol event tallies.
	Counts Counts
}

// Measure extracts Metrics from a finished run: the result, the
// network's energy accounting under tech, and its event counts from
// core.Counters and Network.Tally — no recorder or OnEvent hook needed.
// On a restored network Created and TTLExpiries count from Restore (as
// Tally does) while the other counts, like Counters, cover the whole run.
func Measure(net *core.Network, res core.Result, tech energy.Technology) Metrics {
	c := net.Counters()
	created, expired, _ := net.Tally()
	return Metrics{
		Completed:     res.Completed,
		Rounds:        res.Rounds,
		EnergyJ:       c.Energy.EnergyJ(tech),
		EnergyPerBitJ: c.Energy.EnergyPerBitJ(tech, c.DeliveredPayloadBits),
		Counts: Counts{
			Created:       created,
			Transmissions: c.Energy.Transmissions,
			CRCRejects:    c.UpsetsDetected,
			OverflowDrops: c.OverflowDrops,
			Deliveries:    c.Deliveries,
			TTLExpiries:   expired,
		},
	}
}

// Aggregate summarizes per-replica Metrics. Rounds and the energy
// figures are aggregated over completed replicas only — a DNF has no
// meaningful completion round — while the event counters cover every
// replica.
type Aggregate struct {
	// Replicas is the number of replicas executed.
	Replicas int
	// Completed is how many of them finished.
	Completed int
	// CompletionRate is Completed / Replicas.
	CompletionRate float64

	// Rounds summarizes completion latency in rounds, over completed
	// replicas only.
	Rounds stats.Summary
	// EnergyJ summarizes total communication energy in joules, over
	// completed replicas only.
	EnergyJ stats.Summary
	// EnergyPerBit summarizes joules per useful delivered payload bit
	// (Eq. 3), over completed replicas only.
	EnergyPerBit stats.Summary

	// Transmissions summarizes link transmissions per replica, over all
	// replicas.
	Transmissions stats.Summary
	// Deliveries summarizes first-time deliveries per replica, over all
	// replicas.
	Deliveries stats.Summary
	// CRCRejects summarizes CRC-rejected receptions per replica, over
	// all replicas.
	CRCRejects stats.Summary
	// OverflowDrops summarizes overflow losses per replica, over all
	// replicas.
	OverflowDrops stats.Summary
	// TTLExpiries summarizes TTL garbage collections per replica, over
	// all replicas.
	TTLExpiries stats.Summary
}

// Summarize aggregates ms into summary statistics with mean, stddev and
// the 95% confidence half-width.
func Summarize(ms []Metrics) Aggregate {
	var rounds, energyJ, energyPB stats.Online
	var tx, del, crc, ovf, exp stats.Online
	completed := 0
	for _, m := range ms {
		if m.Completed {
			completed++
			rounds.Add(float64(m.Rounds))
			energyJ.Add(m.EnergyJ)
			energyPB.Add(m.EnergyPerBitJ)
		}
		tx.Add(float64(m.Counts.Transmissions))
		del.Add(float64(m.Counts.Deliveries))
		crc.Add(float64(m.Counts.CRCRejects))
		ovf.Add(float64(m.Counts.OverflowDrops))
		exp.Add(float64(m.Counts.TTLExpiries))
	}
	agg := Aggregate{
		Replicas:      len(ms),
		Completed:     completed,
		Rounds:        stats.Summarize(&rounds),
		EnergyJ:       stats.Summarize(&energyJ),
		EnergyPerBit:  stats.Summarize(&energyPB),
		Transmissions: stats.Summarize(&tx),
		Deliveries:    stats.Summarize(&del),
		CRCRejects:    stats.Summarize(&crc),
		OverflowDrops: stats.Summarize(&ovf),
		TTLExpiries:   stats.Summarize(&exp),
	}
	if len(ms) > 0 {
		agg.CompletionRate = float64(completed) / float64(len(ms))
	}
	return agg
}
