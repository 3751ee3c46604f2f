package core

// This file holds the per-tile occupancy bitmaps of the round engine.
//
// The phase loops of Step sweep the mesh once per phase, and on a
// mega-mesh almost every tile they visit is idle: a 512×512 churn
// workload keeps a few hundred messages live across 262144 tiles, so the
// sweeps were >95% of the round's wall-clock — three cache misses per
// idle tile per round just to discover there is nothing to do. The
// engine therefore tracks, in two dense bitmaps, which tiles can
// possibly have work:
//
//   - bufOcc: tile's send buffer is non-empty (phases 2 and 3 visit it);
//   - rcvOcc: tile's arrival ring holds in-flight copies (phase 4
//     visits it — a tile whose arrivals are all scheduled for future
//     rounds is revisited each round until they drain, which is cheap
//     and keeps the bit maintenance trivial).
//
// Each bitmap carries a summary level on top — one summary bit per
// 64-tile word, set while the word is non-zero — so the phase sweeps are
// two-level: walk the set summary bits, then the set tile bits under
// them (Network.sweep, phase.go). A sub-TTL workload on a 512×512 mesh
// touches a few dozen of the 4096 tile words; the summary collapses the
// idle remainder to 64 word loads per phase, making the sweep O(active
// words + tiles/4096), not O(tiles/64). This is the frontier the
// scheduler iterates: a tile enters it the instant a copy is buffered or
// scheduled to arrive, and leaves when its buffer and ring drain.
//
// Both levels are exact at every round barrier (enqueue sets a tile's
// bufOcc bit when its buffer goes non-empty, aging clears it when the
// buffer empties; scheduling sets rcvOcc, phase 4 clears it when the
// ring drains; word-level transitions mirror into the summary), which is
// what lets Quiescent answer from the bitmaps alone. Iteration is in
// ascending tile order — the same order the full sweeps used — so
// skipping idle tiles is invisible to the event log, the RNG streams and
// every golden.

// occMap is one two-level occupancy bitmap: bits holds one bit per tile,
// sum one bit per word of bits, set exactly while the word is non-zero.
type occMap struct {
	bits []uint64
	sum  []uint64
}

// empty reports whether no bit of m is set; the summary answers alone.
// Barrier use only.
func (m *occMap) empty() bool {
	for _, sw := range m.sum {
		if sw != 0 {
			return false
		}
	}
	return true
}

// occWords returns the bitmap length for a tiles-tile mesh.
func occWords(tiles int) int { return (tiles + 63) / 64 }

// initOcc sizes the map for a tiles-tile mesh, empty, reusing its storage.
func (m *occMap) initOcc(tiles int) {
	m.bits = zeroed(m.bits, occWords(tiles))
	m.sum = zeroed(m.sum, occWords(len(m.bits)))
}

// reset zeroes both levels (restore path).
func (m *occMap) reset() {
	clear(m.bits)
	clear(m.sum)
}

// set sets bit ti, publishing its word in the summary when the word goes
// live.
func (m *occMap) set(ti uint32) {
	wi := ti >> 6
	old := m.bits[wi]
	m.bits[wi] = old | 1<<(ti&63)
	if old == 0 {
		m.sum[wi>>6] |= 1 << (wi & 63)
	}
}

// unset clears bit ti, and its word's summary bit when the word empties.
func (m *occMap) unset(ti uint32) {
	wi := ti >> 6
	w := m.bits[wi] &^ (1 << (ti & 63))
	m.bits[wi] = w
	if w == 0 {
		m.sum[wi>>6] &^= 1 << (wi & 63)
	}
}

// rebuildOccupancy recomputes both bitmaps from the tiles' actual state.
// Restore uses it: the checkpoint serializes buffers and rings, and the
// bitmaps (both levels) are derived state.
func (n *Network) rebuildOccupancy() {
	n.bufOcc.reset()
	n.rcvOcc.reset()
	for i := range n.tiles {
		if h := n.tiles[i].hot; h != nil {
			if len(h.buf) > 0 {
				n.bufOcc.set(uint32(i))
			}
			if h.ring.count > 0 {
				n.rcvOcc.set(uint32(i))
			}
		}
	}
}
