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
// disguise. The pools make the steady state allocation-free: a tile's hot
// slot (buffer and ring) returns to the pool when the tile goes cold, and
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

// poolFloor is how many detached slots the pool keeps however small the
// frontier is: it covers the churn of small meshes and sparse pockets
// outright, so their pool is never trimmed.
const poolFloor = 256

// hotSlot is the traffic state of a tile on the frontier — the send
// buffer and arrival ring of the Fig. 3-5 interface. A tile holds one
// exactly while it buffers a copy or has one in flight toward it (its
// bufOcc or rcvOcc bit is set), so a mega-mesh pays for buffers only
// where traffic is, not for every tile.
type hotSlot struct {
	buf  []packet.Packet // live copies, owned by value
	ring arrivalRing     // in-flight copies keyed by arrival round
}

// slotPool is the free list of hot slots. A tile takes a slot when it
// first buffers a copy or is sent one, and gives it back when it goes
// cold (nothing buffered, nothing in flight). A pooled slot is empty and
// zeroed — every truncation in the engine zeroes what it cuts — but keeps
// its buffer capacity and ring buckets, so reuse is behavior-free and a
// warm frontier allocates nothing. A pooled ring may be longer than
// initLen (it may have grown in an earlier tenancy); schedule's mask
// arithmetic works at any power-of-two length.
//
// The pool's size follows the frontier: armed counts the slots held by
// tiles, and at every round barrier trim cuts the free list back to that
// count (or poolFloor). A frontier in steady state returns about as many
// slots per round as it takes, at most one per armed tile, so the bound
// never starves it; a frontier that collapses leaves its pool holding
// what a frontier of the new size can use, and the rest goes to the GC.
type slotPool struct {
	free  []*hotSlot
	armed int
	// initLen is the bucket count of a fresh slot's ring. A skew-free
	// fault model never slips an arrival, so its networks start every ring
	// with a single bucket; grow covers the rest.
	initLen int
}

// take gives cold tile t a slot: a pooled one when the pool has one,
// otherwise a fresh one, whose buffer and ring allocate on first use.
func (sp *slotPool) take(t *tile) {
	sp.armed++
	if l := len(sp.free); l > 0 {
		t.hot, sp.free[l-1] = sp.free[l-1], nil
		sp.free = sp.free[:l-1]
		return
	}
	t.hot = new(hotSlot)
}

// give takes t's slot back; t goes cold. Callers give it only once the
// slot is empty — nothing buffered and nothing in flight: a tile that
// still gossips gets its next arrivals a round later, and giving its slot
// back between them would cycle every hot tile through the pool every
// round.
func (sp *slotPool) give(t *tile) {
	sp.armed--
	sp.free = append(sp.free, t.hot)
	t.hot = nil
}

// trim drops the pooled slots beyond max(poolFloor, armed), reallocating
// the list so the cut tail is collectable. Barrier only.
func (sp *slotPool) trim() {
	keep := max(poolFloor, sp.armed)
	if len(sp.free) > keep {
		sp.free = append(make([]*hotSlot, 0, keep), sp.free[:keep]...)
	}
}

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
	n.hotOf(&n.tiles[dst]).ring.schedule(n.round, when, a, n.slots.initLen)
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
