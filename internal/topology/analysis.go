package topology

import "repro/internal/packet"

// Analysis helpers over topologies with failures overlaid. The fault
// injector marks tiles and links dead; these functions answer the
// questions the thesis raises in §4.1.3 — "entire regions of the NoC are
// isolated" — by computing reachability on the surviving subgraph.

// AliveFunc reports whether a tile is functional.
type AliveFunc func(packet.TileID) bool

// LinkAliveFunc reports whether the link between two adjacent tiles is
// functional.
type LinkAliveFunc func(a, b packet.TileID) bool

// AllAlive is the no-failure predicate.
func AllAlive(packet.TileID) bool { return true }

// AllLinksAlive is the no-failure link predicate.
func AllLinksAlive(a, b packet.TileID) bool { return true }

// BFSDistances returns the hop distance from src to every tile over the
// surviving subgraph, or -1 for unreachable tiles. If src itself is dead,
// every entry is -1.
func BFSDistances(t Topology, src packet.TileID, alive AliveFunc, linkAlive LinkAliveFunc) []int {
	n := t.Tiles()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if !alive(src) {
		return dist
	}
	dist[src] = 0
	queue := []packet.TileID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.Neighbors(cur) {
			if dist[nb] >= 0 || !alive(nb) || !linkAlive(cur, nb) {
				continue
			}
			dist[nb] = dist[cur] + 1
			queue = append(queue, nb)
		}
	}
	return dist
}

// Reachable reports whether dst can be reached from src over the surviving
// subgraph. A gossip broadcast can only succeed if this holds; the
// experiment harness uses it to classify "application failed completely"
// outcomes.
func Reachable(t Topology, src, dst packet.TileID, alive AliveFunc, linkAlive LinkAliveFunc) bool {
	if src == dst {
		return alive(src)
	}
	return BFSDistances(t, src, alive, linkAlive)[dst] >= 0
}

// ConnectedComponents returns, for each tile, the component index of the
// surviving subgraph it belongs to, with dead tiles assigned -1, plus the
// number of components.
func ConnectedComponents(t Topology, alive AliveFunc, linkAlive LinkAliveFunc) (comp []int, count int) {
	n := t.Tiles()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	for s := 0; s < n; s++ {
		src := packet.TileID(s)
		if comp[s] >= 0 || !alive(src) {
			continue
		}
		comp[s] = count
		queue := []packet.TileID{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range t.Neighbors(cur) {
				if comp[nb] >= 0 || !alive(nb) || !linkAlive(cur, nb) {
					continue
				}
				comp[nb] = count
				queue = append(queue, nb)
			}
		}
		count++
	}
	return comp, count
}
