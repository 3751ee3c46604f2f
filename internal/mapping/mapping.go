// Package mapping assigns application task graphs to NoC tiles.
//
// The thesis relies on two mapping-level mechanisms: IP duplication
// ("each slave can be duplicated, such that if one of the IPs ... is
// located on a dysfunctional tile, the remaining one will still be able to
// provide the partial result", §4.1.1) and communication-aware placement
// ("the mapping phase of the system-level design has to take into account
// the communication performance", §4.1.3, citing Hu & Mărculescu's
// energy-aware mapping [21]).
//
// This package provides both: task graphs with per-task replica counts,
// placements, and the Σ volume×distance cost a communication-aware
// placement minimizes.
package mapping

import (
	"repro/internal/packet"
	"repro/internal/topology"
)

// Task is one application module.
type Task struct {
	// Name identifies the task in traces.
	Name string
	// Replicas is the number of copies to place (>= 1); replicas compute
	// identical results, so duplication buys crash tolerance without
	// extra unique traffic (§4.1.3).
	Replicas int
}

// Edge is a producer-consumer communication with an estimated volume in
// bits (per execution), weighting its distance in CommCost.
type Edge struct {
	From, To int
	Volume   int
}

// Graph is an application task graph.
type Graph struct {
	Tasks []Task
	Edges []Edge
}

// Placement maps each task to the tiles hosting its replicas.
type Placement struct {
	TilesOf [][]packet.TileID
}

// hopMatrix precomputes all-pairs hop distances.
func hopMatrix(topo topology.Topology) [][]int {
	n := topo.Tiles()
	m := make([][]int, n)
	for s := 0; s < n; s++ {
		m[s] = topology.BFSDistances(topo, packet.TileID(s), topology.AllAlive, topology.AllLinksAlive)
	}
	return m
}

// CommCost returns the Σ volume×distance objective of a placement — the
// quantity an energy-aware mapper minimizes, proportional to the minimum
// achievable switching energy for the traffic pattern. For replicated
// tasks the nearest replica pair carries the edge.
func CommCost(g *Graph, topo topology.Topology, p *Placement) int {
	dist := hopMatrix(topo)
	total := 0
	for _, e := range g.Edges {
		best := -1
		for _, a := range p.TilesOf[e.From] {
			for _, b := range p.TilesOf[e.To] {
				if d := dist[a][b]; best < 0 || d < best {
					best = d
				}
			}
		}
		if best > 0 {
			total += e.Volume * best
		}
	}
	return total
}
