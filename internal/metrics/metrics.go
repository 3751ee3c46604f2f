// Package metrics is the per-round time-series observability layer of
// the simulator. The thesis' whole argument is trajectory-shaped —
// fraction of aware tiles, packet transmissions and energy *per round*
// (§3.3, Figs. 3-3…3-6) — so the Recorder turns the engine's own counts
// (core.Counters, Network.Tally) and end-of-round state, sampled at every
// round barrier (core.Config.OnRoundEnd), into dense per-round series,
// one slot per round, preallocated up front so that recording costs zero
// allocations in the engine's steady state (the same discipline as the
// flat tables of internal/core). It installs no per-event hook: protocol
// events (core.Config.OnEvent) are for traces.
//
// Data flow:
//
//	Counters, Tally, Aware ──OnRoundEnd──▶ Recorder ──Series()──▶ TimeSeries (one replica)
//	  (per-round deltas, gauges, energy ΔJ)                          │
//	                                                          Merge() across replicas
//	                                                                 │
//	                                              Aggregate ──WriteJSONL/WriteCSV──▶ files
//
// Cross-replica aggregation is driven by the internal/sim Monte Carlo
// runner (sim.RunSeries), which guarantees the merge is deterministic in
// (Replicas, Seed) alone — never in worker count or scheduling. See
// docs/OBSERVABILITY.md for a worked example.
package metrics

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/packet"
)

// IntID names one integer-valued per-round series. Integer series are
// counters: events per round (transmissions, deliveries, ...) or
// end-of-round gauges (aware tiles).
type IntID int

// FloatID names one float-valued per-round series (fractions, joules).
type FloatID int

// The integer series, in export order. All are per-round event counts,
// each the per-round delta of one engine count, except AwareTiles, an
// end-of-round gauge. A round's events are the ones a core.Config.OnEvent
// hook would see labelled with that round.
const (
	// Created counts messages entering their origin tile's send buffer
	// (core.EvCreated; Network.Tally) in each round.
	Created IntID = iota
	// Transmissions counts copies driven onto links (core.EvTransmit;
	// Counters.Energy.Transmissions) in each round — the N_packets input
	// of the Eq. 3 energy model.
	Transmissions
	// CRCRejects counts receptions discarded as scrambled
	// (core.EvUpset; Counters.UpsetsDetected) in each round.
	CRCRejects
	// OverflowDrops counts messages lost to buffer overflow
	// (core.EvOverflow; Counters.OverflowDrops) in each round.
	OverflowDrops
	// Deliveries counts first-time deliveries to addressed tiles
	// (core.EvDeliver; Counters.Deliveries) in each round.
	Deliveries
	// TTLExpiries counts buffered copies garbage-collected at TTL zero
	// (core.EvExpire; Network.Tally) in each round.
	TTLExpiries
	// AwareTiles is an end-of-round gauge: how many tiles know the
	// watched message (Recorder.Watch) after the round — the shaded
	// tiles of the Fig. 3-3 walkthrough. Zero when nothing is watched.
	AwareTiles

	numInts = int(AwareTiles) + 1
)

// The float series, in export order. Both are end-of-round values
// written by the OnRoundEnd flush.
const (
	// AwareFraction is AwareTiles divided by the tile count — the
	// dissemination trajectory of Fig. 3-3 as a fraction in [0, 1].
	AwareFraction FloatID = iota
	// EnergyJ is the communication energy dissipated during the round,
	// in joules: the round's transmitted bits × the technology's
	// J/bit constant (Eq. 3 applied per round). Zero when the Recorder
	// was built without a Technology.
	EnergyJ

	numFloats = int(EnergyJ) + 1
)

// The series names key the exporter output, in IntID/FloatID order.
var (
	intNames = [numInts]string{
		"created", "transmissions", "crc_rejects", "overflow_drops",
		"deliveries", "ttl_expiries", "aware_tiles",
	}
	floatNames = [numFloats]string{"aware_fraction", "energy_j"}
)

// Config parameterizes one Recorder.
type Config struct {
	// Rounds is the preallocation bound: the recorder allocates every
	// series dense over [0, Rounds] up front, so recording within that
	// window allocates nothing. Size it like the engine's own tables —
	// from core.Config.MaxRounds plus any draining margin. 0 defaults
	// to 256; exceeding the bound grows the tables (amortized doubling,
	// off the steady state), never drops data.
	Rounds int
	// Tech supplies the J/bit constant for the EnergyJ series (e.g.
	// energy.NoCLink025). The zero value records zero joules.
	Tech energy.Technology
}

// Recorder accumulates dense per-round series from one network run.
// Install wires it into a core.Config; one Recorder per network —
// replicas must not share one (the round engine is single-threaded, and
// so is the Recorder). The recorder must see its network from core.New
// on, or be restored with it (RestoreState): the event series are
// deltas of the engine's counts. In the engine's steady state (rounds
// within the Config.Rounds bound) recording performs no allocation:
// every series slot exists before the run starts.
type Recorder struct {
	ints     [numInts][]int64     // [IntID][round]
	floats   [numFloats][]float64 // [FloatID][round]
	span     int                  // allocated rounds: series cover [0, span)
	last     int                  // highest round recorded so far
	watch    packet.MsgID
	jPerBit  float64
	prevBits int
	tiles    int // topology size, cached on first OnRoundEnd
	// booked holds, per event series, the engine count the series
	// already hold: the next booking adds what the count gained since.
	booked [AwareTiles]int
}

// NewRecorder builds a Recorder with every series preallocated over
// [0, cfg.Rounds].
func NewRecorder(cfg Config) *Recorder {
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 256
	}
	r := &Recorder{
		span:    rounds + 1,
		jPerBit: cfg.Tech.JoulePerBit,
	}
	for i := range r.ints {
		r.ints[i] = make([]int64, r.span)
	}
	for i := range r.floats {
		r.floats[i] = make([]float64, r.span)
	}
	return r
}

// Watch selects the message whose awareness trajectory the AwareTiles /
// AwareFraction series record (typically the broadcast under study).
// Call it right after Inject/Send returns the ID; with nothing watched
// both series stay zero.
func (r *Recorder) Watch(id packet.MsgID) { r.watch = id }

// Install wires the recorder into cfg's OnRoundEnd hook, chaining (not
// replacing) any hook already set. Call before core.New.
func (r *Recorder) Install(cfg *core.Config) {
	if prev := cfg.OnRoundEnd; prev != nil {
		cfg.OnRoundEnd = func(round int, n *core.Network) { prev(round, n); r.OnRoundEnd(round, n) }
	} else {
		cfg.OnRoundEnd = r.OnRoundEnd
	}
}

// ensure grows every series to cover round (amortized doubling). Within
// the preallocated span it is two comparisons and inlines into the
// recording hot path; only the out-of-span grow is a real call.
func (r *Recorder) ensure(round int) {
	if round > r.last {
		r.last = round
	}
	if round >= r.span {
		r.grow(round)
	}
}

// grow doubles every series until it covers round. Off the steady-state
// path by construction (Config.Rounds sizes the tables for the run);
// kept out of line so the recording fast path stays a handful of
// instructions.
//
//go:noinline
func (r *Recorder) grow(round int) {
	span := r.span
	for span <= round {
		span *= 2
	}
	for i, s := range r.ints {
		grown := make([]int64, span)
		copy(grown, s)
		r.ints[i] = grown
	}
	for i, s := range r.floats {
		grown := make([]float64, span)
		copy(grown, s)
		r.floats[i] = grown
	}
	r.span = span
}

// OnRoundEnd is the per-round flush: it books the round's events (Sync)
// and samples end-of-round state into the gauge series (aware
// tiles/fraction of the watched message, the round's energy in joules).
// It has the core.Config.OnRoundEnd signature.
func (r *Recorder) OnRoundEnd(round int, n *core.Network) {
	r.Sync(n)
	aware := 0
	if r.watch != 0 {
		aware = n.Aware(r.watch)
	}
	r.ints[AwareTiles][round] = int64(aware)
	if r.tiles == 0 {
		r.tiles = n.Topology().Tiles()
	}
	if r.tiles > 0 {
		r.floats[AwareFraction][round] = float64(aware) / float64(r.tiles)
	}
	bits := n.Counters().Energy.Bits
	r.floats[EnergyJ][round] = float64(bits-r.prevBits) * r.jPerBit
	r.prevBits = bits
}

// Sync books into the event series what n's counts gained since the
// recorder last looked, at the round n has just run — except the
// creations the latest Step had already counted when its round began:
// those came between rounds and carry the round before, as their events
// do. OnRoundEnd syncs every round; call Sync at a round barrier when
// the series are read or checkpointed after an Inject between rounds and
// before the next round ends (sim.Scenario does, after its pre-run
// Inject).
func (r *Recorder) Sync(n *core.Network) {
	round := n.Round()
	r.ensure(round)
	created, expired, atStep := n.Tally()
	if gap := atStep - r.booked[Created]; gap > 0 {
		r.ints[Created][round-1] += int64(gap)
		r.booked[Created] = atStep
	}
	c := n.Counters()
	now := [AwareTiles]int{
		Created:       created,
		Transmissions: c.Energy.Transmissions,
		CRCRejects:    c.UpsetsDetected,
		OverflowDrops: c.OverflowDrops,
		Deliveries:    c.Deliveries,
		TTLExpiries:   expired,
	}
	for id, v := range now {
		r.ints[id][round] += int64(v - r.booked[id])
	}
	r.booked = now
}

// Total returns the cumulative value of an integer series over the whole
// run (the per-round values summed on demand — the hot path records only
// the per-round slot). For the event-count series these are the engine's
// own counts (Transmissions ↔ Counters.Energy.Transmissions, CRCRejects
// ↔ UpsetsDetected, and so on; Created and TTLExpiries ↔ Network.Tally),
// and round by round they equal an OnEvent hook's tally of the events
// labelled with each round (sim's TestRecorderMatchesEventsPerRound).
// For the AwareTiles gauge the cumulative value is meaningless; read its
// trajectory from Series().
func (r *Recorder) Total(id IntID) int64 {
	var sum int64
	for _, v := range r.ints[id][:r.last+1] {
		sum += v
	}
	return sum
}

// Series snapshots the recorded data as an immutable TimeSeries covering
// rounds 0 through the highest recorded round. It copies (one allocation per series) so the
// snapshot survives further recording; call it once, after the run.
func (r *Recorder) Series() *TimeSeries {
	n := r.last + 1
	ts := &TimeSeries{Rounds: r.last}
	for i, s := range r.ints {
		ts.Ints[i] = append([]int64(nil), s[:n]...)
	}
	for i, s := range r.floats {
		ts.Floats[i] = append([]float64(nil), s[:n]...)
	}
	return ts
}

// View is Series without the copy: its series alias the recorder's
// tables, so they hold only until the next round is recorded (or the
// tables grow), and must not be written. It serves a reader that follows
// a run round by round — smc's decision at every round barrier — which
// Series, copying every series at every call, would cost time
// quadratic in the rounds.
func (r *Recorder) View() TimeSeries {
	n := r.last + 1
	ts := TimeSeries{Rounds: r.last}
	for i, s := range r.ints {
		ts.Ints[i] = s[:n:n]
	}
	for i, s := range r.floats {
		ts.Floats[i] = s[:n:n]
	}
	return ts
}

// TimeSeries is one replica's recorded per-round series: every series is
// dense over rounds [0, Rounds] (index = round; round 0 holds pre-run
// injections).
type TimeSeries struct {
	// Rounds is the highest recorded round; every series has
	// Rounds+1 entries.
	Rounds int
	// Ints holds the integer series, indexed [IntID][round].
	Ints [numInts][]int64
	// Floats holds the float series, indexed [FloatID][round].
	Floats [numFloats][]float64
}

// Int returns one integer series (length Rounds+1, index = round).
func (ts *TimeSeries) Int(id IntID) []int64 { return ts.Ints[id] }

// Float returns one float series (length Rounds+1, index = round).
func (ts *TimeSeries) Float(id FloatID) []float64 { return ts.Floats[id] }
