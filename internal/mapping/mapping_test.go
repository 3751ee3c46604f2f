package mapping

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/topology"
)

func TestCommCostZeroForColocatedReplicaPair(t *testing.T) {
	g := &Graph{
		Tasks: []Task{{Name: "a", Replicas: 1}, {Name: "b", Replicas: 1}},
		Edges: []Edge{{From: 0, To: 1, Volume: 7}},
	}
	grid := topology.NewGrid(2, 2)
	p := &Placement{TilesOf: [][]packet.TileID{{0}, {1}}}
	if got := CommCost(g, grid, p); got != 7 {
		t.Fatalf("CommCost = %d, want 7 (volume × 1 hop)", got)
	}
	far := &Placement{TilesOf: [][]packet.TileID{{0}, {3}}}
	if got := CommCost(g, grid, far); got != 14 {
		t.Fatalf("CommCost = %d, want 14 (volume × 2 hops)", got)
	}
}
