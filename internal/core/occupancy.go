package core

import (
	"math/bits"
	"sync/atomic"
)

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
//
// Concurrency: a tile's bit is only ever flipped by the lane that owns
// the tile, but tiles of several lanes can share a 64-tile word when
// lane boundaries are unaligned (meshes too small for word-aligned
// sharding, see initLanes). Tile-bit flips then go through a CAS loop
// and iteration reads the words atomically; with word-aligned lanes —
// and always on the sequential engine — plain loads and stores suffice.
// The summary level is one notch more shared: even under an aligned
// partition a summary word covers 64 tile words that may span several
// lanes, so while shard goroutines are live every summary flip is a CAS
// and every summary read an atomic load. That stays cheap because
// summary bits only flip on a word's empty↔non-empty transitions — at
// most once per active word per phase, not once per transmission. Under
// an unaligned partition a tile word itself is shared, and a drain by
// one lane can race a fill by another on the same summary bit; clearing
// would lose the fill, so unaligned parallel clears leave the summary
// bit set. The summary is then a conservative superset — iteration
// reads a zero tile word and moves on — and the next sequential or
// exclusive-owner clear tidies it. The same sharing makes the summary
// lag mid-phase: the lane that flips a shared word from zero publishes it,
// and a peer whose tiles sit in that word may sweep first (phase 4 sweeps
// straight after its own merge). Sweeps under an unaligned partition
// therefore do not consult the summary at all — such a lane spans fewer
// than 64 tiles, one or two words, and reads them directly (Network.sweep).
// Unaligned partitions only occur on meshes with fewer than 64 tiles per
// shard.

// occMap is one two-level occupancy bitmap: bits holds one bit per tile,
// sum one bit per word of bits (set while the word is non-zero — exactly
// at barriers, a superset mid-phase under unaligned parallel clears).
type occMap struct {
	bits []uint64
	sum  []uint64
}

// empty reports whether no bit of m is set, walking only the words the
// summary names. A stale summary bit (unaligned parallel clears, see the
// file comment) is verified against its word, so a superset summary
// never yields a false non-empty verdict. Barrier use only.
func (m *occMap) empty() bool {
	for si, sw := range m.sum {
		for sw != 0 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			if m.bits[wi] != 0 {
				return false
			}
		}
	}
	return true
}

// occWords returns the bitmap length for a tiles-tile mesh.
func occWords(tiles int) int { return (tiles + 63) / 64 }

// initOcc sizes the map for a tiles-tile mesh.
func (m *occMap) initOcc(tiles int) {
	m.bits = make([]uint64, occWords(tiles))
	m.sum = make([]uint64, occWords(len(m.bits)))
}

// reset zeroes both levels (restore path).
func (m *occMap) reset() {
	clear(m.bits)
	clear(m.sum)
}

// setBarrier sets bit ti with no concurrency discipline — only for use
// at barriers (rebuildOccupancy), where no shard goroutine is live.
func (m *occMap) setBarrier(ti int) {
	wi := ti >> 6
	m.bits[wi] |= 1 << (uint(ti) & 63)
	m.sum[wi>>6] |= 1 << (uint(wi) & 63)
}

// occSet sets bit ti of m. Safe under parallel phases: unaligned lanes
// CAS the shared tile word, aligned lanes own their tile words outright;
// the summary word is CASed whenever shard goroutines are live (it can
// span lanes even under an aligned partition). The CAS loops live in
// separate functions so that occSet/occClear stay leaf calls the
// compiler inlines into the per-transmission hot path.
func (n *Network) occSet(m *occMap, ti uint32) {
	if n.par && !n.alignedLanes {
		occSetAtomic(m, ti)
		return
	}
	wi := ti >> 6
	old := m.bits[wi]
	m.bits[wi] = old | 1<<(ti&63)
	if old == 0 {
		// Word went live: publish it in the summary.
		if n.par {
			sumSetAtomic(m.sum, wi)
		} else {
			m.sum[wi>>6] |= 1 << (wi & 63)
		}
	}
}

func occSetAtomic(m *occMap, ti uint32) {
	w := &m.bits[ti>>6]
	mask := uint64(1) << (ti & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			if old == 0 {
				sumSetAtomic(m.sum, ti>>6)
			}
			return
		}
	}
}

// occClear clears bit ti of m, under the same discipline as occSet. A
// word drained by an unaligned parallel clear keeps its summary bit (see
// the file comment: clearing could lose a concurrent fill of the shared
// word); everywhere else the summary tracks the word exactly.
func (n *Network) occClear(m *occMap, ti uint32) {
	if n.par && !n.alignedLanes {
		occClearAtomic(m, ti)
		return
	}
	wi := ti >> 6
	w := m.bits[wi] &^ (1 << (ti & 63))
	m.bits[wi] = w
	if w == 0 {
		if n.par {
			sumClearAtomic(m.sum, wi)
		} else {
			m.sum[wi>>6] &^= 1 << (wi & 63)
		}
	}
}

func occClearAtomic(m *occMap, ti uint32) {
	w := &m.bits[ti>>6]
	mask := uint64(1) << (ti & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask == 0 || atomic.CompareAndSwapUint64(w, old, old&^mask) {
			return
		}
	}
}

// sumSetAtomic sets summary bit wi (one bit per tile word) with a CAS:
// summary words can span lanes even when tile words do not.
func sumSetAtomic(sum []uint64, wi uint32) {
	w := &sum[wi>>6]
	mask := uint64(1) << (wi & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 || atomic.CompareAndSwapUint64(w, old, old|mask) {
			return
		}
	}
}

// sumClearAtomic clears summary bit wi. Only called while the clearing
// lane exclusively owns tile word wi (aligned partitions), so no
// concurrent fill of that word can race the clear.
func sumClearAtomic(sum []uint64, wi uint32) {
	w := &sum[wi>>6]
	mask := uint64(1) << (wi & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask == 0 || atomic.CompareAndSwapUint64(w, old, old&^mask) {
			return
		}
	}
}

// rebuildOccupancy recomputes both bitmaps from the tiles' actual state.
// Restore uses it: the checkpoint serializes buffers and rings, and the
// bitmaps (both levels) are derived state.
func (n *Network) rebuildOccupancy() {
	n.bufOcc.reset()
	n.rcvOcc.reset()
	for i := range n.tiles {
		t := &n.tiles[i]
		if len(t.sendBuf) > 0 {
			n.bufOcc.setBarrier(i)
		}
		if t.ring.count > 0 {
			n.rcvOcc.setBarrier(i)
		}
	}
}
