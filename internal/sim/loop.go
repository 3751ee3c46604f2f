package sim

import (
	"repro/internal/core"
)

// This file is the controlled run loop the simulation service is built
// on: a replica that can be cancelled or preempted, but only at round
// barriers — the one place the engine's state is snapshot-consistent
// (core.Snapshot's own precondition). A long job driven through Loop
// yields to interactive traffic by stopping at a barrier and continuing
// later, bit-identically, from the state it stopped in (see
// Hooks.Parked and docs/SERVICE.md, "Preemptive scheduling").

// BarrierOp is a control decision taken at a round barrier, before the
// next round executes.
type BarrierOp int

// The barrier decisions, in escalating order of disruption.
const (
	// OpContinue lets the next round execute.
	OpContinue BarrierOp = iota
	// OpYield stops the loop so the caller can park and requeue the run;
	// the network is at a round barrier, exactly where core.Snapshot is
	// legal, so a continued run goes on bit-identically.
	OpYield
	// OpCancel abandons the run; the caller discards the network or
	// Resets it for another run.
	OpCancel
)

// LoopStatus reports why a Loop stopped.
type LoopStatus int

// The loop outcomes. The first three are terminal run outcomes; the
// last two are control outcomes requested by the Barrier hook.
const (
	// LoopDone: the Done predicate reported completion.
	LoopDone LoopStatus = iota
	// LoopBudget: the round budget was exhausted before completion (the
	// MaxRounds guillotine).
	LoopBudget
	// LoopQuiescent: the network drained — no live or in-flight copies
	// remain — with Done still false (every copy was lost or expired).
	LoopQuiescent
	// LoopYielded: the Barrier hook requested a yield; the network sits
	// at a round barrier, ready to be parked or snapshot.
	LoopYielded
	// LoopCanceled: the Barrier hook requested cancellation.
	LoopCanceled
)

// String implements fmt.Stringer.
func (s LoopStatus) String() string {
	switch s {
	case LoopDone:
		return "done"
	case LoopBudget:
		return "budget"
	case LoopQuiescent:
		return "quiescent"
	case LoopYielded:
		return "yielded"
	case LoopCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Loop drives one network round by round with a control check at every
// round barrier. The hooks run on the calling goroutine, strictly
// between rounds, so they may checkpoint, record, or stream without any
// synchronization against the engine. Control never changes the
// simulation: a run that is yielded, checkpointed, and resumed executes
// exactly the rounds — and consumes exactly the random draws — an
// uninterrupted run would have.
type Loop struct {
	// Net is the network to drive (required, positioned at any barrier —
	// round 0 for a fresh run, later for a continued or restored one).
	Net *core.Network
	// MaxRounds is the round budget: the loop stops with LoopBudget once
	// Net.Round() reaches it.
	MaxRounds int
	// Done, if set, is the completion predicate, evaluated at every
	// barrier before anything else; true stops the loop with LoopDone.
	Done func(n *core.Network) bool
	// Barrier, if set, is the control check, evaluated at every barrier
	// after Done and quiescence: its BarrierOp decides whether the next
	// round executes. Nil means OpContinue forever.
	Barrier func(n *core.Network) BarrierOp
	// OnRound, if set, observes the network right after every executed
	// round, at the barrier — the streaming hook (append the round's
	// metric line, notify subscribers).
	OnRound func(n *core.Network)
}

// Run executes rounds until a terminal outcome or a control request and
// reports why it stopped. The check order at each barrier — Done, then
// budget, then quiescence, then Barrier — means a run that completes is
// never also yielded: a run stopped with LoopYielded is always
// unfinished.
func (l *Loop) Run() LoopStatus {
	for {
		if l.Done != nil && l.Done(l.Net) {
			return LoopDone
		}
		if l.Net.Round() >= l.MaxRounds {
			return LoopBudget
		}
		if l.Net.Round() > 0 && l.Net.Quiescent() {
			return LoopQuiescent
		}
		if l.Barrier != nil {
			switch l.Barrier(l.Net) {
			case OpYield:
				return LoopYielded
			case OpCancel:
				return LoopCanceled
			}
		}
		l.Net.Step()
		if l.OnRound != nil {
			l.OnRound(l.Net)
		}
	}
}
