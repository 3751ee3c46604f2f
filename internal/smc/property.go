// Package smc is the statistical model checker of the simulator: it
// answers probabilistic reliability queries — "does a broadcast reach
// ≥95% of tiles within 64 rounds with probability at least 0.99?" — by
// simulation, at fabric scales the probabilistic model checkers of the
// NoC-verification literature (Roberts et al. 2021, Waddoups et al.
// 2025; see PAPERS.md) cannot reach.
//
// The package has three layers:
//
//   - A property-specification layer: a Property is a predicate over one
//     replica's per-round metric series (internal/metrics), built from
//     the constructors below (AwareFraction(0.95).Within(64),
//     EnergyBelow(j), Delivered().By(t), And/Or/Not) or parsed from the
//     documented text form ("aware(0.95) within 64"; see Parse and
//     docs/SMC.md). Evaluating a Property on a replica yields one
//     Bernoulli outcome.
//   - Wald's sequential probability ratio test (SPRT, sprt.go) decides
//     P[φ] ≥ θ against P[φ] < θ with configurable α/β error bounds,
//     consuming replicas only until the verdict is statistically
//     settled; Check (check.go) drives it through the internal/sim
//     worker pool, deterministically in the root seed.
//   - Fixed-effort importance splitting (split.go) estimates rare-event
//     probabilities (tails below ~1e-6 that fixed-N Monte Carlo cannot
//     see) by forking trajectories at level crossings via the engine's
//     checkpoint machinery (core.Snapshot / core.Restore / core.Reseed).
//
// Verdicts are cross-validated against the exact complete-fabric flood
// law (gossip.FloodSpreadDist) and exact one-round grid events; see
// docs/SMC.md for the property grammar, the statistical guarantees and
// the reproduction recipe.
package smc

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// NoHorizon is returned by Property.Horizon for properties that must
// observe the whole run (no "within"/"by" bound anywhere).
const NoHorizon = -1

// Property is one checkable claim about a replica: a predicate over the
// per-round metric series the replica recorded. Implementations are
// immutable values; String renders the canonical text form, which Parse
// round-trips (Parse(p.String()) is equivalent to p).
type Property interface {
	// Eval reports whether the property holds on one replica's series.
	Eval(ts *metrics.TimeSeries) bool
	// Horizon returns the last round index the property needs to
	// observe, or NoHorizon when it depends on the whole run. Drivers
	// may stop a replica once its horizon has been simulated.
	Horizon() int
	// String renders the property in the canonical spec-language form.
	String() string
}

// AwareProp asserts that the watched message's awareness reaches a
// fraction of the fabric, optionally within a round bound: the thesis'
// dissemination claims ("a broadcast reaches ≥95% of tiles within T
// rounds") as a checkable predicate over the aware_fraction series.
type AwareProp struct {
	// Frac is the awareness fraction that must be reached, in [0, 1].
	Frac float64
	// Rounds is the inclusive round bound, or NoHorizon for "ever".
	Rounds int
}

// AwareFraction returns the property "the watched message's awareness
// reaches at least frac at some recorded round". Chain Within to bound
// the rounds: AwareFraction(0.95).Within(64).
func AwareFraction(frac float64) AwareProp {
	return AwareProp{Frac: frac, Rounds: NoHorizon}
}

// Within bounds the awareness deadline: the fraction must be reached at
// some round ≤ rounds.
func (a AwareProp) Within(rounds int) AwareProp {
	a.Rounds = rounds
	return a
}

// Eval scans the aware_fraction series up to the bound. Awareness is
// monotone, but the scan tolerates non-monotone custom series too.
func (a AwareProp) Eval(ts *metrics.TimeSeries) bool {
	s := ts.Float(metrics.AwareFraction)
	last := lastRound(len(s)-1, a.Rounds)
	for t := 0; t <= last; t++ {
		if s[t] >= a.Frac {
			return true
		}
	}
	return false
}

// Horizon returns the Within bound, or NoHorizon when unbounded.
func (a AwareProp) Horizon() int { return a.Rounds }

// String renders "aware(F)" or "aware(F) within T".
func (a AwareProp) String() string {
	if a.Rounds == NoHorizon {
		return fmt.Sprintf("aware(%s)", formatFloat(a.Frac))
	}
	return fmt.Sprintf("aware(%s) within %d", formatFloat(a.Frac), a.Rounds)
}

// DeliveredProp asserts that a cumulative number of first-time
// deliveries has happened, optionally by a round bound — the unicast
// reliability claim ("the destination receives the message by round t").
type DeliveredProp struct {
	// Count is the number of deliveries required (≥ 1).
	Count int64
	// Rounds is the inclusive round bound, or NoHorizon for "ever".
	Rounds int
}

// Delivered returns the property "at least one delivery happens".
// Chain By to bound the round, or Deliveries for a higher count.
func Delivered() DeliveredProp {
	return DeliveredProp{Count: 1, Rounds: NoHorizon}
}

// Deliveries returns the property "at least count first-time deliveries
// happen" (count ≥ 1 is the caller's responsibility; Parse enforces it
// for the text form).
func Deliveries(count int64) DeliveredProp {
	return DeliveredProp{Count: count, Rounds: NoHorizon}
}

// By bounds the delivery deadline (inclusive round index).
func (d DeliveredProp) By(rounds int) DeliveredProp {
	d.Rounds = rounds
	return d
}

// Eval accumulates the deliveries series up to the bound.
func (d DeliveredProp) Eval(ts *metrics.TimeSeries) bool {
	s := ts.Int(metrics.Deliveries)
	last := lastRound(len(s)-1, d.Rounds)
	var sum int64
	for t := 0; t <= last; t++ {
		sum += s[t]
		if sum >= d.Count {
			return true
		}
	}
	return false
}

// Horizon returns the By bound, or NoHorizon when unbounded.
func (d DeliveredProp) Horizon() int { return d.Rounds }

// String renders "delivered", "delivered(K)", "delivered by T" or
// "delivered(K) by T".
func (d DeliveredProp) String() string {
	var b strings.Builder
	b.WriteString("delivered")
	if d.Count != 1 {
		fmt.Fprintf(&b, "(%d)", d.Count)
	}
	if d.Rounds != NoHorizon {
		fmt.Fprintf(&b, " by %d", d.Rounds)
	}
	return b.String()
}

// EnergyProp asserts that the replica's total communication energy stays
// at or below a budget in joules — the energy half of the latency/energy
// trade-off the thesis tunes with p and TTL.
type EnergyProp struct {
	// MaxJ is the inclusive energy budget, in joules.
	MaxJ float64
}

// EnergyBelow returns the property "total communication energy over the
// run is ≤ joules". It needs a replica recorded with an energy
// technology (metrics.Config.Tech), else the series is all zero and the
// property holds trivially.
func EnergyBelow(joules float64) EnergyProp {
	return EnergyProp{MaxJ: joules}
}

// Eval sums the per-round energy series over the whole run.
func (e EnergyProp) Eval(ts *metrics.TimeSeries) bool {
	var sum float64
	for _, v := range ts.Float(metrics.EnergyJ) {
		sum += v
	}
	return sum <= e.MaxJ
}

// Horizon returns NoHorizon: the budget covers the whole run.
func (e EnergyProp) Horizon() int { return NoHorizon }

// String renders "energy <= J".
func (e EnergyProp) String() string {
	return "energy <= " + formatFloat(e.MaxJ)
}

// TransmissionsProp asserts that the replica's total link transmissions
// stay at or below a budget — the technology-independent sibling of
// EnergyProp (Eq. 3 makes energy proportional to transmitted bits).
type TransmissionsProp struct {
	// Max is the inclusive transmission budget, in link transmissions.
	Max int64
}

// TransmissionsBelow returns the property "total link transmissions over
// the run are ≤ max".
func TransmissionsBelow(max int64) TransmissionsProp {
	return TransmissionsProp{Max: max}
}

// Eval sums the per-round transmissions series over the whole run.
func (p TransmissionsProp) Eval(ts *metrics.TimeSeries) bool {
	var sum int64
	for _, v := range ts.Int(metrics.Transmissions) {
		sum += v
	}
	return sum <= p.Max
}

// Horizon returns NoHorizon: the budget covers the whole run.
func (p TransmissionsProp) Horizon() int { return NoHorizon }

// String renders "transmissions <= N".
func (p TransmissionsProp) String() string {
	return fmt.Sprintf("transmissions <= %d", p.Max)
}

// AndProp is the conjunction of its terms (all must hold).
type AndProp struct {
	// Terms are the conjuncts, in source order (≥ 2).
	Terms []Property
}

// And returns the conjunction of the given properties. With fewer than
// two terms it degenerates: And() is unsatisfiable-free (trivially
// true), And(p) is p.
func And(terms ...Property) Property {
	if len(terms) == 1 {
		return terms[0]
	}
	return AndProp{Terms: terms}
}

// Eval evaluates every term (no short-circuit — Eval is pure and cheap).
func (a AndProp) Eval(ts *metrics.TimeSeries) bool {
	for _, t := range a.Terms {
		if !t.Eval(ts) {
			return false
		}
	}
	return true
}

// Horizon returns the largest term horizon (NoHorizon if any term is
// unbounded).
func (a AndProp) Horizon() int { return maxHorizon(a.Terms) }

// String joins the terms with "and", parenthesizing non-atomic terms.
func (a AndProp) String() string { return joinTerms(a.Terms, "and") }

// OrProp is the disjunction of its terms (at least one must hold).
type OrProp struct {
	// Terms are the disjuncts, in source order (≥ 2).
	Terms []Property
}

// Or returns the disjunction of the given properties; Or(p) is p.
func Or(terms ...Property) Property {
	if len(terms) == 1 {
		return terms[0]
	}
	return OrProp{Terms: terms}
}

// Eval evaluates every term.
func (o OrProp) Eval(ts *metrics.TimeSeries) bool {
	for _, t := range o.Terms {
		if t.Eval(ts) {
			return true
		}
	}
	return false
}

// Horizon returns the largest term horizon (NoHorizon if any term is
// unbounded).
func (o OrProp) Horizon() int { return maxHorizon(o.Terms) }

// String joins the terms with "or", parenthesizing non-atomic terms.
func (o OrProp) String() string { return joinTerms(o.Terms, "or") }

// NotProp is the negation of its term.
type NotProp struct {
	// Term is the negated property.
	Term Property
}

// Not returns the negation of p. Note that negating a bounded property
// keeps the bound as an observation horizon: "not aware(0.95) within 64"
// holds iff awareness has NOT reached 0.95 by round 64.
func Not(p Property) Property { return NotProp{Term: p} }

// Eval inverts the term.
func (n NotProp) Eval(ts *metrics.TimeSeries) bool { return !n.Term.Eval(ts) }

// Horizon returns the term's horizon.
func (n NotProp) Horizon() int { return n.Term.Horizon() }

// String renders "not <term>", parenthesizing non-atomic terms.
func (n NotProp) String() string {
	return "not " + parenthesize(n.Term)
}

// lastRound clamps a property's round bound to the recorded range:
// series index `have` is the last recorded round, `want` the bound (or
// NoHorizon). A bound beyond the recording simply scans what exists —
// the driver is responsible for simulating far enough (Check sizes the
// replica horizon from Property.Horizon).
func lastRound(have, want int) int {
	if want == NoHorizon || want > have {
		return have
	}
	if want < 0 {
		return -1
	}
	return want
}

// maxHorizon folds term horizons: unbounded wins, else the maximum.
func maxHorizon(terms []Property) int {
	h := 0
	for _, t := range terms {
		th := t.Horizon()
		if th == NoHorizon {
			return NoHorizon
		}
		if th > h {
			h = th
		}
	}
	return h
}

// joinTerms renders an n-ary combinator in canonical form.
func joinTerms(terms []Property, op string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = parenthesize(t)
	}
	return strings.Join(parts, " "+op+" ")
}

// parenthesize wraps combinator terms in parentheses so the canonical
// form re-parses with the intended structure; atoms stay bare.
func parenthesize(p Property) string {
	switch p.(type) {
	case AndProp, OrProp, NotProp:
		return "(" + p.String() + ")"
	default:
		return p.String()
	}
}

// formatFloat renders a float in the shortest form that parses back to
// the same value, keeping String ∘ Parse lossless.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
