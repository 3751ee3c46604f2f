package core

import "repro/internal/packet"

// This file holds the engine's recycling pools and two helpers the phase
// bodies share: send, which schedules an arrival, and unshare, which
// detaches a payload from its pooled frame.
//
// Frontier recycling: on a large mesh the active pocket wanders, so
// first-touch allocations (a fresh tile's arrival-ring buckets, its send
// buffer) happen every round somewhere new — a steady allocation rate
// whose GC marks the whole mesh's pointer graph, an O(mesh) round cost in
// disguise. The pools make the steady state allocation-free: buffers
// return to the pool when they drain, rings when their tile goes cold, and
// the heap copies deliveries hand to processes are carved from a chunked
// arena. All of it is behavior-invisible (capacity and address reuse
// only).

// framePoolCap bounds how many recycled wire frames a pool retains.
// Frames are returned to the pool at a burst's peak in-flight count;
// without the cap a single bursty round would pin that peak memory for
// the rest of the run. Beyond the cap, put drops the
// frame for the GC. 256 frames cover the steady-state fan-in of meshes
// well past 64×64 (pinned by TestFramePoolBounded).
const framePoolCap = 256

// framePool recycles encoded wire frames on the literal-upset path: a
// frame is drawn by transmit and recycled once phase 4 has consumed it.
type framePool struct {
	frames [][]byte
}

// get returns a frame of the given size, reusing a pooled buffer when
// one is large enough; too-small pooled frames are discarded.
func (fp *framePool) get(size int) []byte {
	for len(fp.frames) > 0 {
		last := len(fp.frames) - 1
		f := fp.frames[last]
		fp.frames[last] = nil
		fp.frames = fp.frames[:last]
		if cap(f) >= size {
			return f[:size]
		}
	}
	return make([]byte, size)
}

// put recycles a consumed frame, dropping it once the pool is full.
func (fp *framePool) put(f []byte) {
	if len(fp.frames) >= framePoolCap {
		return
	}
	fp.frames = append(fp.frames, f)
}

// poolFloor is how many detached items a pool keeps however small the
// frontier is: it covers the churn of small meshes and sparse pockets
// outright, so their pools are never trimmed.
const poolFloor = 256

// pool is a free list of a recyclable per-tile resource (ring bucket
// arrays, send buffers). Its size follows the frontier: armed counts the
// items handed out and not yet returned — the hot tiles — and at every
// round barrier trim cuts the free list back to that count
// (or poolFloor). A frontier in steady state returns about as many items
// per round as it takes, at most one per armed tile, so the bound never
// starves it; a frontier that collapses leaves its pool holding what a
// frontier of the new size can use, and the rest goes to the GC.
type pool[T any] struct {
	free  []T
	armed int
}

// get hands out a pooled item. ok is false when the pool is dry: the
// caller then allocates, and the item it eventually puts back is what
// fills the pool.
func (p *pool[T]) get() (v T, ok bool) {
	p.armed++
	l := len(p.free)
	if l == 0 {
		return v, false
	}
	var zero T
	v, p.free[l-1] = p.free[l-1], zero
	p.free = p.free[:l-1]
	return v, true
}

// put takes an item back.
func (p *pool[T]) put(v T) {
	p.armed--
	p.free = append(p.free, v)
}

// trim drops the pooled items beyond max(poolFloor, armed), reallocating
// the list so the cut tail is collectable. Barrier only.
func (p *pool[T]) trim() {
	keep := max(poolFloor, p.armed)
	if len(p.free) > keep {
		p.free = append(make([]T, 0, keep), p.free[:keep]...)
	}
}

// bufPool recycles drained send-buffer slices: phase 2 returns a tile's
// buffer when its last copy expires, enqueue re-arms the next cold tile
// from the pool. Pooled slices are empty with their tail zeroed (every
// truncation in the engine zeroes what it cuts), so reuse is
// behavior-free; a dry pool hands out nil and the caller's append
// allocates.
type bufPool = pool[[]packet.Packet]

// pktArenaChunk is how many delivered-packet copies the arena carves from
// one allocation.
const pktArenaChunk = 256

// pktArena hands out heap copies for delivered packets in chunks: the
// copies live as long as a mailbox references them either way, so
// carving them from a block only divides the allocation count (and the
// GC's object count) by the chunk size.
type pktArena struct {
	chunk []packet.Packet
}

// get returns a pointer to a zeroed packet with arena lifetime.
func (a *pktArena) get() *packet.Packet {
	if len(a.chunk) == 0 {
		a.chunk = make([]packet.Packet, pktArenaChunk)
	}
	p := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return p
}

// send hands one in-flight arrival to its destination tile's arrival
// ring. The copy is now committed to arrive, so the in-flight count of its
// message rises here.
func (n *Network) send(dst packet.TileID, when int, a arrival) {
	if n.recycle {
		n.tbl.inflight[msgSlot(a.pkt.ID)]++
	}
	n.tiles[dst].ring.schedule(n.round, when, a, &n.rings)
	n.rcvOcc.set(uint32(dst))
}

// unshare replaces a frame-aliased payload with a private copy at the
// moment a literal-path packet is first stored; clearing borrowed lets
// deliver and enqueue share that one copy, exactly as Decode used to
// provide. A duplicate never reaches this point (enqueue drops it first;
// on the analytic path most are settled at the sender), so it costs no
// payload copy at all.
func (n *Network) unshare(p *packet.Packet) {
	if len(p.Payload) > 0 {
		owned := make([]byte, len(p.Payload))
		copy(owned, p.Payload)
		p.Payload = owned
	}
	n.borrowed = nil
}
