package core

import (
	"sync"

	"repro/internal/packet"
)

// This file holds the lanes the round engine runs phases 2-4 on. Every
// network has at least one: the sequential engine is the one-lane case, and
// Config.Shards > 1 partitions the tiles into contiguous lanes whose
// per-tile phases run shard-parallel between barriers, bit-identical to
// one lane at any count. See DESIGN.md, "Sharded engine".
//
// The determinism argument, in one paragraph: every source of randomness
// is a per-tile stream consumed only by phases running on that tile's
// lane, so parallel execution draws exactly the sequential values. The
// only cross-tile writes are (a) phase-3 transmissions into destination
// arrival rings — staged in per-lane outboxes and merged in
// sending-tile-ID order, reproducing the sequential insertion order of
// every ring; (b) the per-message aware counters — commutative ±1
// transitions applied atomically, so the final counts are
// order-independent; (c) Counters — integer deltas accumulated per lane
// and summed after the barrier; and (d) observer callbacks — staged per
// lane in per-tile order and flushed in tile-ID order after the barrier,
// replaying the sequential callback sequence. Message-ID allocation is
// the one operation whose *order* is observable and non-commutative
// (IDs index the flat tables and appear in events), so the phases that
// can create messages — phase 1 always, phase 4 when a Receiver or
// StopSpreadOnDelivery is present — run sequentially.

// lane is one execution context of the round engine: a contiguous tile
// range with its own frame, ring and buffer pools, a private Counters
// delta, a staged-callback buffer and a transmission outbox. A lane runs
// direct — callbacks fire inline, transmissions go straight into the
// arrival rings, counts go straight into Network.cnt — whenever no shard
// goroutine is live (!Network.par): always on a one-lane network, and in
// the sequential phase-4 fallback. While lanes run in parallel everything
// a lane stages is merged or flushed in lane order (= tile-ID order) after
// the phase barrier.
type lane struct {
	net    *Network
	idx    int // position in Network.lanes (outbox bucket index)
	lo, hi int // tile-index range [lo, hi) this lane executes

	cnt   *Counters // &net.cnt; &delta while lanes run in parallel
	delta Counters  // per-phase counter deltas of a parallel phase

	expired int // EvExpire emissions of this lane's tiles (Network.Tally)

	pool framePool // recycled wire frames for the literal-upset path

	// Frontier recycling: on a large mesh the active pocket wanders, so
	// first-touch allocations (a fresh tile's arrival-ring buckets, its
	// send buffer) happen every round somewhere new — a steady allocation
	// rate whose GC marks the whole mesh's pointer graph, an O(mesh) round
	// cost in disguise. Per-lane recycling makes the steady state
	// allocation-free: buffers return to the pool when they drain, rings
	// when their tile goes cold, and the heap copies deliveries hand to
	// processes and OnDeliver are carved from a chunked arena. All of it
	// is behavior-invisible (capacity and address reuse only) and
	// contention-free (a tile only ever uses the pools of the lane that
	// owns it, see Network.laneOf).
	rings ringPool
	bufs  bufPool
	pkts  pktArena

	// borrowed points at the in-processing literal arrival whose payload
	// still aliases its pooled frame; deliver/enqueue clone the payload
	// (once, shared) the moment that packet is stored. Nil otherwise.
	borrowed *packet.Packet

	actions []action     // staged callbacks, flushed post-barrier in lane order
	outbox  [][]outbound // staged transmissions, bucketed by destination lane
}

// action is one staged observer callback: an OnEvent emission, or (when
// pkt is non-nil) an OnDeliver invocation for the delivered copy pkt.
// Staging preserves the exact sequential callback order because each
// lane appends in per-tile order and lanes flush in tile-ID order.
type action struct {
	ev  Event
	pkt *packet.Packet
}

// outbound is one phase-3 transmission staged in a lane's outbox bucket:
// the in-flight arrival plus its destination tile and consumption round.
// Buckets are keyed by the destination tile's lane, so the phase-4 merge
// reads exactly the entries bound for its own rings instead of filtering
// every lane's full outbox — O(own arrivals), not O(lanes × arrivals).
type outbound struct {
	dst  packet.TileID
	when int
	a    arrival
}

// framePoolCap bounds how many recycled wire frames a pool retains.
// Frames are returned to the receiving lane's pool at a burst's peak
// in-flight count; without the cap a single bursty round would pin that
// peak memory for the rest of the run. Beyond the cap, put drops the
// frame for the GC. 256 frames cover the steady-state fan-in of meshes
// well past 64×64 (pinned by TestFramePoolBounded).
const framePoolCap = 256

// framePool recycles encoded wire frames on the literal-upset path.
// Pools are per-lane, so get/put never contend; frames migrate between
// pools (drawn by the sending lane, recycled by the receiving lane),
// which is fine — they are interchangeable buffers.
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

// pool is one lane's free list of a recyclable per-tile resource (ring
// bucket arrays, send buffers). Its size follows the frontier: armed
// counts the items handed out and not yet returned — the lane's hot tiles
// — and at every round barrier trim cuts the free list back to that count
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

// pktArenaChunk is how many delivered-packet copies a lane carves from
// one allocation.
const pktArenaChunk = 256

// pktArena hands out heap copies for delivered packets in chunks: the
// copies live as long as a mailbox or an OnDeliver hook references them
// either way, so carving them from a block only divides the allocation
// count (and the GC's object count) by the chunk size.
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

// emit publishes a protocol event: immediately when the lane runs direct,
// staged for the post-barrier flush otherwise.
func (ln *lane) emit(kind EventKind, tile, peer packet.TileID, msg packet.MsgID) {
	n := ln.net
	if !n.par {
		n.emit(kind, tile, peer, msg)
		return
	}
	if n.cfg.OnEvent == nil {
		return
	}
	ln.actions = append(ln.actions, action{
		ev: Event{Round: n.round, Kind: kind, Tile: tile, Peer: peer, Msg: msg},
	})
}

// send hands one in-flight arrival to its destination tile: directly
// into the arrival ring when the lane runs direct, staged in the
// destination lane's outbox bucket (merged in sending-tile order after the
// phase-3 barrier) otherwise. Either way the copy is now committed to
// arrive, so the in-flight count of its message rises here — exactly once
// per arrival, since every staged outbound is scheduled by the merge.
func (ln *lane) send(dst packet.TileID, when int, a arrival) {
	if ln.net.recycle {
		ln.net.addInflight(msgSlot(a.pkt.ID), 1)
	}
	if !ln.net.par {
		// Phase 3 runs direct only on a one-lane network, whose lane owns
		// every tile.
		ln.net.tiles[dst].ring.schedule(ln.net.round, when, a, &ln.rings)
		ln.net.occSet(&ln.net.rcvOcc, uint32(dst))
		return
	}
	d := ln.net.laneFor(dst)
	ln.outbox[d] = append(ln.outbox[d], outbound{dst: dst, when: when, a: a})
}

// unshare replaces a frame-aliased payload with a private copy at the
// moment a literal-path packet is first stored; clearing borrowed lets
// deliver and enqueue share that one copy, exactly as Decode used to
// provide. A duplicate never reaches this point (enqueue drops it first;
// on the analytic path most are settled at the sender), so it costs no
// payload copy at all.
func (ln *lane) unshare(p *packet.Packet) {
	if len(p.Payload) > 0 {
		owned := make([]byte, len(p.Payload))
		copy(owned, p.Payload)
		p.Payload = owned
	}
	ln.borrowed = nil
}

// initLanes partitions the tiles into shards contiguous tile-ID ranges and
// builds their lanes. Every lane owns whole 64-tile words — New clamps
// shards to [1, max(1, tiles/64)] — so no two lanes share any 64-bit word
// of the tile bitmaps (message present/seen rows, occupancy) and the
// per-bit flips are plain loads and stores even while shard goroutines are
// live. Only the last lane's last word can be partial (the mesh end). The
// geometry is invisible to results — sharding is bit-identical at any
// shard count.
func (n *Network) initLanes(shards, ringLen int) {
	n.lanes = make([]lane, shards)
	tiles := len(n.tiles)
	words := occWords(tiles)
	n.laneBase, n.laneRem = words/shards, words%shards
	lo := 0
	for i := range n.lanes {
		spanW := n.laneBase
		if i < n.laneRem {
			spanW++
		}
		ln := &n.lanes[i]
		ln.net = n
		ln.idx = i
		ln.lo, ln.hi = lo, min(lo+spanW*64, tiles)
		ln.cnt = &n.cnt
		ln.outbox = make([][]outbound, shards)
		ln.rings.initLen = ringLen
		lo = ln.hi
	}
}

// laneOf returns the lane owning tile t, whose ring and buffer pools serve
// it. Inside phases 2-4 that is always the executing lane; Inject, phase 1
// and Restore, which run on no lane, look it up here. Every ring and
// buffer therefore goes back to the pool it was drawn from, which keeps
// each pool's armed count the exact number of its lane's tiles holding
// one.
func (n *Network) laneOf(t packet.TileID) *lane {
	return &n.lanes[n.laneFor(t)]
}

// trimPools is the round-barrier half of the pool policy (see pool): each
// lane's free lists are cut back to its armed count.
func (n *Network) trimPools() {
	for i := range n.lanes {
		n.lanes[i].rings.trim()
		n.lanes[i].bufs.trim()
	}
}

// laneFor maps a tile to the index of the lane owning it, inverting the
// initLanes partition arithmetically: in 64-tile words, the first laneRem
// lanes span laneBase+1, the rest laneBase.
func (n *Network) laneFor(t packet.TileID) int {
	w := int(t) >> 6
	if wide := n.laneRem * (n.laneBase + 1); w < wide {
		return w / (n.laneBase + 1)
	} else {
		return n.laneRem + (w-wide)/n.laneBase
	}
}

// runShards executes phase once per lane and folds the lanes' counter
// deltas into the network totals. A one-lane network runs its lane inline,
// direct: no goroutine, no barrier. With more lanes they run concurrently
// and the call waits for the barrier; lane 0 runs on the stepping
// goroutine itself — one fewer goroutine handoff per barrier, which is
// most of the sharding overhead on small meshes. While shard goroutines
// are live (n.par) per-message aware-count updates switch to atomics and
// each lane counts into its private delta, so Counters is exact again the
// moment the barrier passes; everything else a phase touches is
// tile-local, lane-local, or read-only (see the file comment). phase is a
// method expression, not a bound method value, so the one-lane path
// allocates nothing.
func (n *Network) runShards(phase func(*Network, *lane)) {
	if len(n.lanes) == 1 {
		phase(n, &n.lanes[0])
		return
	}
	n.par = true
	for i := range n.lanes {
		n.lanes[i].cnt = &n.lanes[i].delta
	}
	var wg sync.WaitGroup
	wg.Add(len(n.lanes) - 1)
	for i := 1; i < len(n.lanes); i++ {
		ln := &n.lanes[i]
		go func() {
			defer wg.Done()
			phase(n, ln)
		}()
	}
	phase(n, &n.lanes[0])
	wg.Wait()
	n.par = false
	for i := range n.lanes {
		ln := &n.lanes[i]
		n.cnt.add(&ln.delta)
		ln.delta = Counters{}
		ln.cnt = &n.cnt
	}
}

// stepLanes is phases 2-4 of Step: phase 1 (computation) already ran
// sequentially — it allocates message IDs, whose order is observable.
// Barrier order matters: counters merge and staged callbacks flush before
// the next phase so that an observer sees the same event sequence, phase
// by phase, as a one-lane run; outboxes merge before phase 4 so every
// arrival ring holds its sequential contents in sequential order. On a
// one-lane network nothing is staged and the merges are no-ops.
func (n *Network) stepLanes() {
	n.refreshProcs()

	// Phase 2 — aging (tile-local; expiry events staged).
	n.runShards((*Network).phaseAge)
	n.flushActions()

	// Phase 3 — forwarding into private outboxes. Each lane clears its
	// own (already merged) outbox of the previous round at entry, which
	// is what lets the dedicated clearing barrier disappear.
	n.runShards((*Network).phaseForward)
	n.flushActions()

	// Phase 4 — reception, fused with the outbox merge: every lane drains
	// its own bucket of each outbox in lane order and schedules those
	// arrivals (each ring is written only by its owner shard, in
	// sending-tile-ID order — the sequential insertion order), then
	// immediately consumes its own rings. No barrier is needed between
	// the two halves because a lane merges only into rings it alone
	// reads, and other lanes' outboxes are read-only after the phase-3
	// barrier. A Receiver process can create messages at delivery time
	// and StopSpreadOnDelivery writes cross-tile tombstones that later
	// tiles of the same round must observe; both are order-dependent, so
	// reception then runs every lane in turn, direct, in lane order — the
	// ascending tile order of one lane (the merge still runs
	// shard-parallel).
	if n.cfg.StopSpreadOnDelivery || n.hasReceiver {
		n.runShards((*Network).mergeInbound)
		for i := range n.lanes {
			n.phaseReceive(&n.lanes[i])
		}
		return
	}
	n.runShards((*Network).mergeAndReceive)
	n.flushActions()
}

// mergeAndReceive is the fused barrier body of phase 4: merge the staged
// transmissions bound for this lane's tiles, then receive them.
func (n *Network) mergeAndReceive(ln *lane) {
	n.mergeInbound(ln)
	n.phaseReceive(ln)
}

// mergeInbound schedules, into this lane's own arrival rings, every
// staged transmission whose destination falls in the lane's tile range —
// exactly the contents of this lane's bucket in every outbox. Scanning
// sender lanes in order preserves the sequential per-ring insertion
// order: within a bucket entries sit in sending-tile order (phase 3
// walks tiles ascending), and all entries for any one ring share a
// bucket, so their relative order matches the unbucketed filter scan.
func (n *Network) mergeInbound(ln *lane) {
	for li := range n.lanes {
		out := n.lanes[li].outbox[ln.idx]
		for i := range out {
			o := &out[i]
			n.tiles[o.dst].ring.schedule(n.round, o.when, o.a, &ln.rings)
			n.occSet(&n.rcvOcc, uint32(o.dst))
		}
	}
}

// clearOutbox zeroes and truncates the lane's outbox buckets at the
// start of the next phaseForward — by then the merge barrier has
// consumed them (zeroing drops payload/frame references for the GC; the
// slice capacities are kept, so steady-state staging allocates nothing).
func clearOutbox(ln *lane) {
	for b, out := range ln.outbox {
		for i := range out {
			out[i] = outbound{}
		}
		ln.outbox[b] = out[:0]
	}
}

// flushActions replays the staged observer callbacks in lane order
// (= tile-ID order), reproducing the sequential callback sequence.
// Callbacks run on the stepping goroutine, after the barrier: state
// reads from a hook therefore see end-of-phase state, not the mid-phase
// snapshots a sequential run would show (the documented Shards caveat).
func (n *Network) flushActions() {
	for li := range n.lanes {
		ln := &n.lanes[li]
		for i := range ln.actions {
			a := &ln.actions[i]
			if a.pkt == nil {
				n.cfg.OnEvent(a.ev)
			} else if n.cfg.OnDeliver != nil {
				n.cfg.OnDeliver(a.ev.Tile, a.pkt, a.ev.Round)
			}
			ln.actions[i] = action{}
		}
		ln.actions = ln.actions[:0]
	}
}

// add accumulates the fields of d into c.
func (c *Counters) add(d *Counters) {
	c.Energy.Merge(d.Energy)
	c.UpsetsInjected += d.UpsetsInjected
	c.UpsetsDetected += d.UpsetsDetected
	c.OverflowDrops += d.OverflowDrops
	c.SlippedDeliveries += d.SlippedDeliveries
	c.Deliveries += d.Deliveries
	c.DeliveredPayloadBits += d.DeliveredPayloadBits
	c.Duplicates += d.Duplicates
	c.Retired += d.Retired
	c.GhostFrames += d.GhostFrames
}
