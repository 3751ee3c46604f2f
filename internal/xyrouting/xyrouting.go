// Package xyrouting implements classic deterministic dimension-ordered
// (XY) routing on a grid NoC — the static-routing strawman of the thesis'
// introduction: "A static routing approach involving the transmission of
// messages along a fixed path from source to destination would fail if
// even a single tile or a link on the path is faulty."
//
// It is built on the same engine as the gossip protocol, using the
// per-tile deterministic router hook: every tile forwards a unicast
// message one hop along X first, then along Y. The comparison experiment
// (internal/experiments.RobustnessStudy) puts numbers behind the thesis'
// claim by sweeping crash failures against both protocols.
package xyrouting

import (
	"errors"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/topology"
)

// ErrNotGrid is returned when the network's fabric is not a *topology.Grid.
var ErrNotGrid = errors.New("xyrouting: XY routing requires a grid topology")

// NextHop returns the XY next hop from cur toward dst on g: move along X
// until the columns match, then along Y. cur == dst returns cur.
func NextHop(g *topology.Grid, cur, dst packet.TileID) packet.TileID {
	cx, cy := g.Coord(cur)
	dx, dy := g.Coord(dst)
	switch {
	case cx < dx:
		return g.ID(cx+1, cy)
	case cx > dx:
		return g.ID(cx-1, cy)
	case cy < dy:
		return g.ID(cx, cy+1)
	case cy > dy:
		return g.ID(cx, cy-1)
	default:
		return cur
	}
}

// Install configures every tile of net as a deterministic XY router. The
// network's gossip probability is bypassed entirely: each unicast message
// is forwarded exactly one copy per round toward its destination.
// Broadcasts degenerate to flooding (XY has no broadcast tree; the thesis
// never gives the bus/static baselines one either).
func Install(net *core.Network) error {
	g, ok := net.Topology().(*topology.Grid)
	if !ok {
		return ErrNotGrid
	}
	for i := 0; i < g.Tiles(); i++ {
		cur := packet.TileID(i)
		net.SetRouter(cur, func(p *packet.Packet) []packet.TileID {
			if p.Dst == packet.Broadcast {
				return g.Neighbors(cur)
			}
			next := NextHop(g, cur, p.Dst)
			if next == cur {
				return nil // we are the destination; nothing to forward
			}
			return []packet.TileID{next}
		})
	}
	return nil
}
