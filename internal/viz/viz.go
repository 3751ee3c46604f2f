// Package viz renders NoC state as ASCII art for CLI tools and debug
// sessions: which tiles know a message (the shaded tiles of the thesis'
// Fig. 3-3 walkthrough), which have crashed, and where the endpoints sit.
// A frame renders live state only: with core.Config.Recycle on, a message
// that has retired has forgotten its per-tile awareness, and its frame
// shows every tile unaware (see Frame).
package viz

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/topology"
)

// Cell glyphs.
const (
	GlyphAware  = '#' // tile knows the message
	GlyphBlank  = '.' // tile does not
	GlyphDead   = 'x' // crashed tile
	GlyphSrc    = 'S' // source
	GlyphDst    = 'D' // destination
	GlyphSrcHit = '$' // source that also knows (always true after inject)
	GlyphDstHit = '@' // destination that has received the message
)

// Frame renders one snapshot of a grid network: which tiles are aware of
// msg, with src/dst and crashes highlighted. It renders live state only,
// read through core.Network.AwareAt: under core.Config.Recycle a message
// that has retired forgets its per-tile awareness with its slot, so its
// frame shows every tile unaware (nocsim -viz never sets Recycle).
func Frame(net *core.Network, grid *topology.Grid, msg packet.MsgID, src, dst packet.TileID) string {
	var b strings.Builder
	for y := 0; y < grid.Height; y++ {
		for x := 0; x < grid.Width; x++ {
			id := grid.ID(x, y)
			b.WriteRune(glyph(net, msg, id, src, dst))
			if x+1 < grid.Width {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func glyph(net *core.Network, msg packet.MsgID, id, src, dst packet.TileID) rune {
	if !net.Injector().TileAlive(id) {
		return GlyphDead
	}
	aware := net.AwareAt(msg, id)
	switch {
	case id == src && aware:
		return GlyphSrcHit
	case id == src:
		return GlyphSrc
	case id == dst && aware:
		return GlyphDstHit
	case id == dst:
		return GlyphDst
	case aware:
		return GlyphAware
	default:
		return GlyphBlank
	}
}

// Legend returns a one-line glyph legend for CLI output.
func Legend() string {
	return fmt.Sprintf("%c source  %c destination  %c destination reached  %c aware  %c unaware  %c crashed",
		GlyphSrc, GlyphDst, GlyphDstHit, GlyphAware, GlyphBlank, GlyphDead)
}
