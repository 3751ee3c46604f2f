// Package metrics is the per-round time-series observability layer of
// the simulator. The thesis' whole argument is trajectory-shaped —
// fraction of aware tiles, packet transmissions and energy *per round*
// (§3.3, Figs. 3-3…3-6) — so the Recorder turns the engine's protocol
// events (core.Config.OnEvent) and end-of-round state
// (core.Config.OnRoundEnd) into dense per-round series, one slot per
// round, preallocated up front so that recording costs zero allocations
// in the engine's steady state (the same discipline as the flat tables
// of internal/core).
//
// Data flow:
//
//	core.Event ──OnEvent──▶ Recorder ──Series()──▶ TimeSeries (one replica)
//	                 │                                   │
//	         OnRoundEnd flush                     Merge() across replicas
//	    (aware tiles, energy ΔJ)                         │
//	                                              Aggregate ──WriteJSONL/WriteCSV──▶ files
//
// Cross-replica aggregation is driven by the internal/sim Monte Carlo
// runner (sim.RunSeries), which guarantees the merge is deterministic in
// (Replicas, Seed) alone — never in worker count or scheduling. See
// docs/OBSERVABILITY.md for a worked example.
package metrics

import (
	"fmt"

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

// The integer series, in export order. All are per-round event counts
// except AwareTiles, an end-of-round gauge.
const (
	// Created counts messages entering their origin tile's send buffer
	// (core.EvCreated) in each round.
	Created IntID = iota
	// Transmissions counts copies driven onto links (core.EvTransmit)
	// in each round — the N_packets input of the Eq. 3 energy model.
	Transmissions
	// CRCRejects counts receptions discarded as scrambled
	// (core.EvUpset) in each round.
	CRCRejects
	// OverflowDrops counts messages lost to buffer overflow
	// (core.EvOverflow) in each round.
	OverflowDrops
	// Deliveries counts first-time deliveries to addressed tiles
	// (core.EvDeliver) in each round.
	Deliveries
	// TTLExpiries counts buffered copies garbage-collected at TTL zero
	// (core.EvExpire) in each round.
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
// so is the Recorder). In the engine's steady state (rounds within the
// Config.Rounds bound) recording performs no allocation: every series
// slot exists before the run starts.
type Recorder struct {
	ints     [numInts][]int64     // [IntID][round]
	floats   [numFloats][]float64 // [FloatID][round]
	span     int                  // allocated rounds: series cover [0, span)
	last     int                  // highest round recorded so far
	watch    packet.MsgID
	jPerBit  float64
	prevBits int
	tiles    int // topology size, cached on first OnRoundEnd
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

// Install wires the recorder into cfg's OnEvent and OnRoundEnd hooks,
// chaining (not replacing) any hooks already set. Call before core.New.
func (r *Recorder) Install(cfg *core.Config) {
	if prev := cfg.OnEvent; prev != nil {
		cfg.OnEvent = func(e core.Event) { prev(e); r.OnEvent(e) }
	} else {
		cfg.OnEvent = r.OnEvent
	}
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

// The recorder maps event kinds onto the integer series by value: the
// two enums are declared in the same order, so the translation on the
// hot path is a bounds guard plus an index. These compile-time
// assertions pin the alignment — reordering either enum fails the build
// here instead of silently corrupting the series.
var (
	_ = [1]struct{}{}[IntID(core.EvCreated)-Created]
	_ = [1]struct{}{}[IntID(core.EvTransmit)-Transmissions]
	_ = [1]struct{}{}[IntID(core.EvUpset)-CRCRejects]
	_ = [1]struct{}{}[IntID(core.EvOverflow)-OverflowDrops]
	_ = [1]struct{}{}[IntID(core.EvDeliver)-Deliveries]
	_ = [1]struct{}{}[IntID(core.EvExpire)-TTLExpiries]
)

// OnEvent counts one protocol event into its per-round series. It has
// the core.Config.OnEvent signature and runs once per protocol event —
// the recorder's hottest code. The mapping covers every core.EventKind;
// an unknown kind is a programming error (a new event kind added to the
// engine without a series mapping) and panics so it cannot silently
// undercount.
func (r *Recorder) OnEvent(e core.Event) {
	if e.Kind > core.EvExpire {
		badKind(e)
	}
	if e.Round >= r.span {
		r.grow(e.Round)
	}
	if e.Round > r.last {
		r.last = e.Round
	}
	r.ints[e.Kind][e.Round]++
}

// badKind reports an event kind with no series mapping; split out so the
// formatting machinery stays off OnEvent's fast path.
//
//go:noinline
func badKind(e core.Event) {
	panic(fmt.Sprintf("metrics: Recorder.OnEvent: unhandled core.EventKind %v", e.Kind))
}

// OnRoundEnd is the per-round flush: it samples end-of-round state into
// the gauge series (aware tiles/fraction of the watched message, the
// round's energy in joules). It has the core.Config.OnRoundEnd
// signature.
func (r *Recorder) OnRoundEnd(round int, n *core.Network) {
	r.ensure(round)
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

// Total returns the cumulative value of an integer series over the whole
// run (the per-round values summed on demand — the hot path records only
// the per-round slot). For the event-count series these reconcile
// exactly with the engine's own counts (Transmissions ↔
// Counters.Energy.Transmissions, CRCRejects ↔ UpsetsDetected, and so on;
// Created and TTLExpiries ↔ Network.Tally — pinned by
// TestMetricsRecorderTotalsMatchCounters and sim's
// TestMeasureMatchesRecorder). For the
// AwareTiles gauge the cumulative value is meaningless; read its
// trajectory from Series().
func (r *Recorder) Total(id IntID) int64 {
	var sum int64
	for _, v := range r.ints[id][:r.last+1] {
		sum += v
	}
	return sum
}

// Rounds returns the highest round recorded so far (0 before any event).
func (r *Recorder) Rounds() int { return r.last }

// Series snapshots the recorded data as an immutable TimeSeries covering
// rounds [0, Rounds()]. It copies (one allocation per series) so the
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
