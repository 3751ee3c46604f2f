package topology

import "repro/internal/packet"

// diameter returns the longest shortest-path distance over the surviving
// subgraph, or -1 if it is disconnected or empty: the check the
// generators' tests measure their fabrics with. For gossip, the diameter
// lower-bounds broadcast latency in rounds.
func diameter(t Topology, alive AliveFunc, linkAlive LinkAliveFunc) int {
	n := t.Tiles()
	max := -1
	anyAlive := false
	for s := 0; s < n; s++ {
		src := packet.TileID(s)
		if !alive(src) {
			continue
		}
		anyAlive = true
		dist := BFSDistances(t, src, alive, linkAlive)
		for d := 0; d < n; d++ {
			if !alive(packet.TileID(d)) {
				continue
			}
			if dist[d] < 0 {
				return -1 // disconnected
			}
			if dist[d] > max {
				max = dist[d]
			}
		}
	}
	if !anyAlive {
		return -1
	}
	return max
}
