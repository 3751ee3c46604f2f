package topology

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func TestGridStructure(t *testing.T) {
	g := NewGrid(4, 4)
	if g.Tiles() != 16 {
		t.Fatalf("Tiles = %d", g.Tiles())
	}
	// Corner tile 0 has exactly 2 neighbors.
	if n := len(g.Neighbors(0)); n != 2 {
		t.Fatalf("corner degree = %d", n)
	}
	// Edge tile 1 has 3 neighbors.
	if n := len(g.Neighbors(1)); n != 3 {
		t.Fatalf("edge degree = %d", n)
	}
	// Interior tile 5 has 4 neighbors.
	if n := len(g.Neighbors(5)); n != 4 {
		t.Fatalf("interior degree = %d", n)
	}
}

func TestGridLinkCount(t *testing.T) {
	// A W x H mesh has W(H-1) + H(W-1) links.
	g := NewGrid(5, 5)
	if got, want := len(g.Links()), 5*4+5*4; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
}

func TestGridCoordRoundTrip(t *testing.T) {
	g := NewGrid(7, 3)
	for id := 0; id < g.Tiles(); id++ {
		x, y := g.Coord(packet.TileID(id))
		if g.ID(x, y) != packet.TileID(id) {
			t.Fatalf("coord round trip failed for %d", id)
		}
		if x < 0 || x >= 7 || y < 0 || y >= 3 {
			t.Fatalf("coord out of range for %d: (%d,%d)", id, x, y)
		}
	}
}

func TestGridManhattan(t *testing.T) {
	g := NewGrid(4, 4)
	// The thesis example: Producer at tile 6 (paper's tile numbering is
	// 1-based; ours is 0-based, so tile 5), Consumer at tile 12 -> 11.
	if d := g.Manhattan(5, 11); d != 3 {
		t.Fatalf("Manhattan(5,11) = %d, want 3", d)
	}
	if d := g.Manhattan(0, 15); d != 6 {
		t.Fatalf("Manhattan(0,15) = %d, want 6", d)
	}
	if d := g.Manhattan(7, 7); d != 0 {
		t.Fatalf("Manhattan(x,x) = %d", d)
	}
}

func TestGridManhattanMatchesBFS(t *testing.T) {
	g := NewGrid(5, 4)
	for s := 0; s < g.Tiles(); s++ {
		dist := BFSDistances(g, packet.TileID(s), AllAlive, AllLinksAlive)
		for d := 0; d < g.Tiles(); d++ {
			if dist[d] != g.Manhattan(packet.TileID(s), packet.TileID(d)) {
				t.Fatalf("BFS %d->%d = %d, Manhattan = %d",
					s, d, dist[d], g.Manhattan(packet.TileID(s), packet.TileID(d)))
			}
		}
	}
}

func TestFullyConnected(t *testing.T) {
	g := NewFullyConnected(16)
	for i := 0; i < 16; i++ {
		if n := len(g.Neighbors(packet.TileID(i))); n != 15 {
			t.Fatalf("degree of %d = %d", i, n)
		}
	}
	if got, want := len(links(g)), 16*15/2; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
}

func TestRing(t *testing.T) {
	g := NewRing(8)
	for i := 0; i < 8; i++ {
		if n := len(g.Neighbors(packet.TileID(i))); n != 2 {
			t.Fatalf("ring degree = %d", n)
		}
	}
	if d := diameter(g, AllAlive, AllLinksAlive); d != 4 {
		t.Fatalf("ring(8) diameter = %d, want 4", d)
	}
}

func TestTorus(t *testing.T) {
	g := NewTorus(4, 4)
	for i := 0; i < 16; i++ {
		if n := len(g.Neighbors(packet.TileID(i))); n != 4 {
			t.Fatalf("torus degree of %d = %d", i, n)
		}
	}
	// Torus diameter is floor(W/2)+floor(H/2).
	if d := diameter(g, AllAlive, AllLinksAlive); d != 4 {
		t.Fatalf("torus(4,4) diameter = %d, want 4", d)
	}
}

// TestGridPortOrder pins the port order of grid and torus tiles: up, left,
// right, down by ascending tile ID, torus wrap links after those. The
// engine draws one Bernoulli per (message, port) in this order, so every
// golden in the repository hangs on it.
func TestGridPortOrder(t *testing.T) {
	ids := func(v ...packet.TileID) []packet.TileID { return v }
	grid, torus := NewGrid(4, 4), NewTorus(4, 4)
	for _, tc := range []struct {
		name string
		topo *Grid
		tile packet.TileID
		want []packet.TileID
	}{
		{"grid interior", grid, 5, ids(1, 4, 6, 9)},
		{"grid top edge", grid, 1, ids(0, 2, 5)},
		{"grid left edge", grid, 4, ids(0, 5, 8)},
		{"grid right edge", grid, 7, ids(3, 6, 11)},
		{"grid bottom edge", grid, 13, ids(9, 12, 14)},
		{"grid first corner", grid, 0, ids(1, 4)},
		{"grid last corner", grid, 15, ids(11, 14)},
		{"grid single column", NewGrid(1, 3), 1, ids(0, 2)},
		{"grid single row", NewGrid(3, 1), 1, ids(0, 2)},
		{"torus interior", torus, 5, ids(1, 4, 6, 9)},
		{"torus first corner", torus, 0, ids(1, 4, 3, 12)},
		{"torus top-right corner", torus, 3, ids(2, 7, 0, 15)},
		{"torus last corner", torus, 15, ids(11, 14, 12, 3)},
		{"torus left edge", torus, 4, ids(0, 5, 8, 7)},
		{"torus top edge", torus, 1, ids(0, 2, 5, 13)},
	} {
		if got := tc.topo.Neighbors(tc.tile); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Neighbors(%d) = %v, want %v", tc.name, tc.tile, got, tc.want)
		}
	}
}

// TestGridFlatAdjacency pins the constructor's storage: a constant number
// of allocations whatever the mesh size.
func TestGridFlatAdjacency(t *testing.T) {
	if allocs := testing.AllocsPerRun(5, func() { NewGrid(32, 32) }); allocs > 4 {
		t.Errorf("NewGrid(32, 32) made %v allocations, want a constant few", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { NewTorus(32, 32) }); allocs > 4 {
		t.Errorf("NewTorus(32, 32) made %v allocations, want a constant few", allocs)
	}
}

// TestGridMatchesReferenceGraph holds the flat grid to the wiring it
// replaced: every tile's Neighbors must equal, element for element, that
// of a Graph built link by link in the historical order — tiles ascending,
// each linking right then down; then the row wraps, then the column wraps
// for a torus. Port order is what every per-port draw sequence hangs on.
func TestGridMatchesReferenceGraph(t *testing.T) {
	reference := func(width, height int, wrap bool) *Graph {
		g := NewGraph(width * height)
		id := func(x, y int) packet.TileID { return packet.TileID(y*width + x) }
		for y := 0; y < height; y++ {
			for x := 0; x < width; x++ {
				if x+1 < width {
					mustLink(g, id(x, y), id(x+1, y))
				}
				if y+1 < height {
					mustLink(g, id(x, y), id(x, y+1))
				}
			}
		}
		if wrap {
			for y := 0; y < height; y++ {
				mustLink(g, id(0, y), id(width-1, y))
			}
			for x := 0; x < width; x++ {
				mustLink(g, id(x, 0), id(x, height-1))
			}
		}
		return g
	}
	for _, tc := range []struct {
		width, height int
		wrap          bool
	}{
		{1, 1, false}, {1, 7, false}, {7, 1, false}, {2, 2, false},
		{4, 4, false}, {5, 3, false}, {3, 8, false}, {16, 16, false},
		{3, 3, true}, {4, 4, true}, {3, 7, true}, {7, 3, true}, {8, 5, true},
	} {
		var got *Grid
		if tc.wrap {
			got = NewTorus(tc.width, tc.height)
		} else {
			got = NewGrid(tc.width, tc.height)
		}
		want := reference(tc.width, tc.height, tc.wrap)
		if got.Tiles() != want.Tiles() {
			t.Fatalf("%dx%d wrap=%v: %d tiles, want %d", tc.width, tc.height, tc.wrap, got.Tiles(), want.Tiles())
		}
		for i := 0; i < want.Tiles(); i++ {
			tile := packet.TileID(i)
			g, w := got.Neighbors(tile), want.Neighbors(tile)
			if len(g) != len(w) || (len(w) > 0 && !reflect.DeepEqual(g, w)) {
				t.Errorf("%dx%d wrap=%v: Neighbors(%d) = %v, want %v", tc.width, tc.height, tc.wrap, i, g, w)
			}
		}
		if g, w := got.Links(), links(want); !reflect.DeepEqual(g, w) {
			t.Errorf("%dx%d wrap=%v: Links = %v, want %v", tc.width, tc.height, tc.wrap, g, w)
		}
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddLink(0, 0); err == nil {
		t.Error("self-link accepted")
	}
	if err := g.AddLink(0, 5); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 0); err == nil {
		t.Error("duplicate link accepted")
	}
}

func TestHasLink(t *testing.T) {
	g := NewGrid(3, 3)
	if !slices.Contains(g.Neighbors(0), 1) || !slices.Contains(g.Neighbors(1), 0) {
		t.Error("adjacent link missing")
	}
	if slices.Contains(g.Neighbors(0), 8) {
		t.Error("phantom diagonal link")
	}
	if got := len(links(g)); got != 12 {
		t.Errorf("3x3 grid has %d links, want 12", got)
	}
}

func TestBFSWithDeadTile(t *testing.T) {
	// 3x1 line: killing the middle tile disconnects the ends.
	g := NewGrid(3, 1)
	alive := func(t packet.TileID) bool { return t != 1 }
	dist := BFSDistances(g, 0, alive, AllLinksAlive)
	if dist[2] != -1 {
		t.Fatalf("tile 2 reachable through dead tile: dist=%d", dist[2])
	}
	if Reachable(g, 0, 2, alive, AllLinksAlive) {
		t.Fatal("Reachable through dead tile")
	}
}

func TestBFSWithDeadLink(t *testing.T) {
	g := NewGrid(2, 1)
	deadLink := func(a, b packet.TileID) bool { return false }
	if Reachable(g, 0, 1, AllAlive, deadLink) {
		t.Fatal("Reachable through dead link")
	}
}

func TestBFSDeadSource(t *testing.T) {
	g := NewGrid(2, 2)
	alive := func(t packet.TileID) bool { return t != 0 }
	dist := BFSDistances(g, 0, alive, AllLinksAlive)
	for i, d := range dist {
		if d != -1 {
			t.Fatalf("dist[%d] = %d with dead source", i, d)
		}
	}
}

func TestReachableSelf(t *testing.T) {
	g := NewGrid(2, 2)
	if !Reachable(g, 1, 1, AllAlive, AllLinksAlive) {
		t.Fatal("tile not reachable from itself")
	}
	dead := func(t packet.TileID) bool { return t != 1 }
	if Reachable(g, 1, 1, dead, AllLinksAlive) {
		t.Fatal("dead tile reachable from itself")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewGrid(4, 1) // line 0-1-2-3
	alive := func(t packet.TileID) bool { return t != 1 }
	comp, n := ConnectedComponents(g, alive, AllLinksAlive)
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if comp[1] != -1 {
		t.Fatalf("dead tile assigned component %d", comp[1])
	}
	if comp[0] == comp[2] || comp[2] != comp[3] {
		t.Fatalf("bad components: %v", comp)
	}
}

func TestDiameterGrid(t *testing.T) {
	if d := diameter(NewGrid(4, 4), AllAlive, AllLinksAlive); d != 6 {
		t.Fatalf("grid(4,4) diameter = %d, want 6", d)
	}
	if d := diameter(NewGrid(5, 5), AllAlive, AllLinksAlive); d != 8 {
		t.Fatalf("grid(5,5) diameter = %d, want 8", d)
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if d := diameter(g, AllAlive, AllLinksAlive); d != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", d)
	}
}

func TestDiameterAllDead(t *testing.T) {
	g := NewGrid(2, 2)
	dead := func(packet.TileID) bool { return false }
	if d := diameter(g, dead, AllLinksAlive); d != -1 {
		t.Fatalf("all-dead diameter = %d, want -1", d)
	}
}

func TestGridPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0, 3) did not panic")
		}
	}()
	NewGrid(0, 3)
}

// Property: in any grid, the neighbor relation is symmetric.
func TestQuickGridSymmetry(t *testing.T) {
	f := func(w, h uint8) bool {
		width, height := int(w%6)+1, int(h%6)+1
		g := NewGrid(width, height)
		for a := 0; a < g.Tiles(); a++ {
			for _, b := range g.Neighbors(packet.TileID(a)) {
				if !slices.Contains(g.Neighbors(b), packet.TileID(a)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a healthy grid is always a single connected component.
func TestQuickGridConnected(t *testing.T) {
	f := func(w, h uint8) bool {
		g := NewGrid(int(w%7)+1, int(h%7)+1)
		_, n := ConnectedComponents(g, AllAlive, AllLinksAlive)
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
