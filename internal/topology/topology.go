// Package topology models the interconnect fabrics studied in the thesis:
// the 2-D grid of tiles of Fig. 1-1 (the NoC proper), the fully connected
// network used for the gossip theory of §3.1/Fig. 3-1, and the generic
// adjacency graphs from which the Chapter 5 on-chip-diversity architectures
// (hierarchical NoC, bus-connected NoCs, central router) are assembled.
package topology

import (
	"fmt"

	"repro/internal/packet"
)

// Topology describes the static wiring of a network: which tiles exist and
// which are joined by links. Implementations must be immutable after
// construction; dynamic failures are layered on by package fault.
type Topology interface {
	// Tiles returns the number of tiles, identified as 0..Tiles()-1.
	Tiles() int
	// Neighbors returns the tiles directly linked to t, in a fixed,
	// deterministic order — the tile's port order, which every per-port
	// random draw sequence hangs on. For the grid that is ascending tile
	// ID: up, left, right, down; a torus appends its wraparound links
	// after those (tile 0 of a 4x4 torus: 1, 4, 3, 12).
	Neighbors(t packet.TileID) []packet.TileID
}

// Graph is a general undirected topology backed by adjacency lists.
type Graph struct {
	adj [][]packet.TileID
}

// NewGraph returns an empty graph with n isolated tiles.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]packet.TileID, n)}
}

// Tiles implements Topology.
func (g *Graph) Tiles() int { return len(g.adj) }

// Neighbors implements Topology. The returned slice is owned by the graph
// and must not be mutated.
func (g *Graph) Neighbors(t packet.TileID) []packet.TileID { return g.adj[t] }

// AddLink joins tiles a and b with a bidirectional link. Self-links and
// duplicate links are rejected.
func (g *Graph) AddLink(a, b packet.TileID) error {
	if int(a) >= len(g.adj) || int(b) >= len(g.adj) {
		return fmt.Errorf("topology: link %d-%d out of range (n=%d)", a, b, len(g.adj))
	}
	if a == b {
		return fmt.Errorf("topology: self-link at tile %d", a)
	}
	for _, x := range g.adj[a] {
		if x == b {
			return fmt.Errorf("topology: duplicate link %d-%d", a, b)
		}
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
	return nil
}

// links returns every undirected link of t exactly once, as (low, high)
// pairs in deterministic order.
func links(t Topology) [][2]packet.TileID {
	var links [][2]packet.TileID
	for a := 0; a < t.Tiles(); a++ {
		for _, b := range t.Neighbors(packet.TileID(a)) {
			if packet.TileID(a) < b {
				links = append(links, [2]packet.TileID{packet.TileID(a), b})
			}
		}
	}
	return links
}

// Grid is the rectangular tile array of Fig. 1-1. Tile (x, y) has ID
// y*Width + x; each tile links to its four mesh neighbours. A Grid is
// immutable: every neighbour list is a window of one flat array, located
// by a per-tile uint32 offset, so a tile costs its neighbour IDs plus
// four bytes — no per-tile slice header. Fabrics that need links added
// one by one are built as a Graph.
type Grid struct {
	Width, Height int
	// off[t] .. off[t+1] is tile t's window of nbrs (Tiles()+1 entries).
	off  []uint32
	nbrs []packet.TileID
}

// NewGrid returns a Width x Height mesh. It panics on non-positive
// dimensions (a programming error, not a runtime condition).
func NewGrid(width, height int) *Grid {
	if width <= 0 || height <= 0 {
		panic("topology: non-positive grid dimension")
	}
	return newMesh(width, height, false)
}

// newMesh builds the width x height mesh, plus the torus wraparound
// links when wrap is set, in three allocations however many tiles. Each
// tile's list is written in the historical port order — the order the
// links were once added one by one (tiles ascending, each linking right
// then down; then the row wraps, then the column wraps): up, left, right,
// down, then the row wrap, then the column wrap.
func newMesh(width, height int, wrap bool) *Grid {
	tiles := width * height
	ports := 2 * (width*(height-1) + height*(width-1))
	if wrap {
		ports = 4 * tiles
	}
	g := &Grid{
		Width: width, Height: height,
		off:  make([]uint32, tiles+1),
		nbrs: make([]packet.TileID, 0, ports),
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			g.off[g.ID(x, y)] = uint32(len(g.nbrs))
			if y > 0 {
				g.nbrs = append(g.nbrs, g.ID(x, y-1))
			}
			if x > 0 {
				g.nbrs = append(g.nbrs, g.ID(x-1, y))
			}
			if x+1 < width {
				g.nbrs = append(g.nbrs, g.ID(x+1, y))
			}
			if y+1 < height {
				g.nbrs = append(g.nbrs, g.ID(x, y+1))
			}
			if !wrap {
				continue
			}
			switch x {
			case 0:
				g.nbrs = append(g.nbrs, g.ID(width-1, y))
			case width - 1:
				g.nbrs = append(g.nbrs, g.ID(0, y))
			}
			switch y {
			case 0:
				g.nbrs = append(g.nbrs, g.ID(x, height-1))
			case height - 1:
				g.nbrs = append(g.nbrs, g.ID(x, 0))
			}
		}
	}
	g.off[tiles] = uint32(len(g.nbrs))
	return g
}

// Tiles implements Topology.
func (g *Grid) Tiles() int { return g.Width * g.Height }

// Neighbors implements Topology, in the port order the Topology
// interface documents. The returned slice is owned by the grid and must
// not be mutated.
func (g *Grid) Neighbors(t packet.TileID) []packet.TileID {
	lo, hi := g.off[t], g.off[t+1]
	return g.nbrs[lo:hi:hi]
}

// Links returns every undirected link exactly once, as (low, high) pairs
// in deterministic order.
func (g *Grid) Links() [][2]packet.TileID { return links(g) }

func mustLink(g *Graph, a, b packet.TileID) {
	if err := g.AddLink(a, b); err != nil {
		panic(err)
	}
}

// ID returns the tile ID at grid coordinate (x, y).
func (g *Grid) ID(x, y int) packet.TileID { return packet.TileID(y*g.Width + x) }

// Coord returns the grid coordinate of tile t.
func (g *Grid) Coord(t packet.TileID) (x, y int) {
	return int(t) % g.Width, int(t) / g.Width
}

// Manhattan returns the Manhattan (hop) distance between tiles a and b —
// the minimum latency of any routing, which flooding (p = 1) achieves.
func (g *Grid) Manhattan(a, b packet.TileID) int {
	ax, ay := g.Coord(a)
	bx, by := g.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// NewTorus returns a Width x Height mesh with wraparound links, an
// extension fabric for ablation studies.
func NewTorus(width, height int) *Grid {
	if width < 3 || height < 3 {
		panic("topology: torus requires dimensions >= 3 to avoid duplicate links")
	}
	return newMesh(width, height, true)
}

// NewFullyConnected returns the complete graph on n tiles — the topology
// assumed by the rumor-spreading theory of §3.1 (Fig. 3-2a).
func NewFullyConnected(n int) *Graph {
	g := NewGraph(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			mustLink(g, packet.TileID(a), packet.TileID(b))
		}
	}
	return g
}

// NewRing returns a cycle on n >= 3 tiles, a worst-case-diameter fabric
// used in robustness tests.
func NewRing(n int) *Graph {
	if n < 3 {
		panic("topology: ring requires n >= 3")
	}
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		mustLink(g, packet.TileID(i), packet.TileID((i+1)%n))
	}
	return g
}
