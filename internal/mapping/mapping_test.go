package mapping

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

// TestCommCostZeroForColocatedReplicaPair places replicated tasks on a
// 4×4 grid, so that an edge's cost depends on which replica pair carries
// it: the nearest pair does, a pair sharing a tile costs nothing, and the
// first pair listed is never the nearest.
func TestCommCostZeroForColocatedReplicaPair(t *testing.T) {
	grid := topology.NewGrid(4, 4)
	g := &Graph{
		Tasks: []Task{{Name: "a", Replicas: 2}, {Name: "b", Replicas: 2}},
		Edges: []Edge{{From: 0, To: 1, Volume: 7}},
	}
	tiles := func(xy ...int) []packet.TileID {
		var ids []packet.TileID
		for i := 0; i < len(xy); i += 2 {
			ids = append(ids, grid.ID(xy[i], xy[i+1]))
		}
		return ids
	}
	for _, tc := range []struct {
		name string
		a, b []packet.TileID
		want int
	}{
		// The first pair, (0,0)-(2,2), is 4 hops apart; the second
		// replicas share (1,1).
		{"colocated second replicas", tiles(0, 0, 1, 1), tiles(2, 2, 1, 1), 0},
		// (0,0)-(3,0) is 3 hops, (0,0)-(2,3) 5, (3,3)-(3,0) 3, and
		// (3,3)-(2,3) 1: the last pair carries the edge.
		{"nearest of four pairs", tiles(0, 0, 3, 3), tiles(3, 0, 2, 3), 7},
		{"single replicas one hop apart", tiles(0, 0), tiles(1, 0), 7},
		{"single replicas two hops apart", tiles(0, 0), tiles(1, 1), 14},
		{"single replicas on one tile", tiles(2, 1), tiles(2, 1), 0},
	} {
		p := &Placement{TilesOf: [][]packet.TileID{tc.a, tc.b}}
		if got := CommCost(g, grid, p); got != tc.want {
			t.Errorf("%s: CommCost = %d, want %d", tc.name, got, tc.want)
		}
	}
}
