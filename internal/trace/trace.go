// Package trace collects and renders the protocol events emitted by the
// simulation engine (core.Config.OnEvent): per-message lifecycle
// timelines and aggregate per-round activity. It exists for debugging
// NoC applications and for asserting engine-level lifecycle invariants
// in tests (a delivery must be preceded by a transmission toward that
// tile; nothing happens to a message before it is created; and so on).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/packet"
)

// Collector accumulates events. Attach with Collector.Hook as the
// network's OnEvent. Not safe for concurrent use (the round engine is
// single-threaded).
type Collector struct {
	events []core.Event
	// Cap bounds memory (0 = unlimited); beyond it, new events are
	// dropped and Truncated is set.
	Cap int
	// Truncated reports that Cap was hit and the timeline is incomplete.
	Truncated bool
}

// Hook returns the function to install as core.Config.OnEvent.
func (c *Collector) Hook() func(core.Event) {
	return func(ev core.Event) {
		if c.Cap > 0 && len(c.events) >= c.Cap {
			c.Truncated = true
			return
		}
		c.events = append(c.events, ev)
	}
}

// Of returns the events of one message, in emission order.
func (c *Collector) Of(id packet.MsgID) []core.Event {
	var out []core.Event
	for _, ev := range c.events {
		if ev.Msg == id {
			out = append(out, ev)
		}
	}
	return out
}

// Timeline renders a message's lifecycle as one line per event.
func (c *Collector) Timeline(id packet.MsgID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "message %d:\n", id)
	for _, ev := range c.Of(id) {
		switch ev.Kind {
		case core.EvTransmit:
			fmt.Fprintf(&b, "  round %3d  %-8s tile %d -> tile %d\n", ev.Round, ev.Kind, ev.Tile, ev.Peer)
		case core.EvDeliver:
			fmt.Fprintf(&b, "  round %3d  %-8s at tile %d (from tile %d)\n", ev.Round, ev.Kind, ev.Tile, ev.Peer)
		default:
			fmt.Fprintf(&b, "  round %3d  %-8s at tile %d\n", ev.Round, ev.Kind, ev.Tile)
		}
	}
	return b.String()
}

// CheckInvariants validates engine-level lifecycle ordering over the
// collected events and returns the violations found (empty = clean):
//
//  1. every message's first event is its creation;
//  2. a delivery at tile T is preceded by a transmission toward T of the
//     same message;
//  3. rounds are non-decreasing in emission order.
func (c *Collector) CheckInvariants() []string {
	var violations []string
	born := map[packet.MsgID]bool{}
	inbound := map[packet.MsgID]map[packet.TileID]bool{}
	lastRound := 0
	for i, ev := range c.events {
		if ev.Round < lastRound {
			violations = append(violations,
				fmt.Sprintf("event %d: round went backwards (%d after %d)", i, ev.Round, lastRound))
		}
		lastRound = ev.Round
		switch ev.Kind {
		case core.EvCreated:
			born[ev.Msg] = true
		case core.EvTransmit:
			if !born[ev.Msg] {
				violations = append(violations,
					fmt.Sprintf("event %d: message %d transmitted before creation", i, ev.Msg))
			}
			if inbound[ev.Msg] == nil {
				inbound[ev.Msg] = map[packet.TileID]bool{}
			}
			inbound[ev.Msg][ev.Peer] = true
		case core.EvDeliver:
			if !inbound[ev.Msg][ev.Tile] {
				violations = append(violations,
					fmt.Sprintf("event %d: message %d delivered at tile %d without an inbound transmission",
						i, ev.Msg, ev.Tile))
			}
		case core.EvExpire, core.EvOverflow:
			if ev.Msg != 0 && !born[ev.Msg] {
				violations = append(violations,
					fmt.Sprintf("event %d: message %d %v before creation", i, ev.Msg, ev.Kind))
			}
		}
	}
	return violations
}
