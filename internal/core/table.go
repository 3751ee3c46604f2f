package core

import (
	"math/bits"
	"unsafe"

	"repro/internal/packet"
)

// This file holds the per-message state tables of the engine: which tiles
// currently buffer a copy of each message (present), which have taken
// delivery or originated it (seen), the incremental aware counts, the
// spread-stop tombstones — and the slot allocator that bounds all of it.
//
// Representation. A MsgID packs a table slot in its low 32 bits and a
// generation (epoch) tag in its high 32 bits. Per-slot state is slot-major:
// one tile-membership row per slot for the present flags and one for the
// seen flags, so dedup, the delivery-once filter, AwareAt and the
// spread-stop check are all single-row lookups, awareness cross-checks
// are row scans, and retiring a message frees one row pair instead of
// touching a byte in every tile's private array (the former per-tile
// []uint8 layout, whose memory was O(tiles × ever-issued)).
//
// Rows. A row is a dense []uint64 tile bitmap carved from a shared arena:
// 8 bytes per 64 tiles per live message, whatever the mesh size. With
// Config.Recycle the number of rows is bounded by the live population, so
// a 512×512 mesh under TTL-16 churn holds ~70 slots × 2 rows × 32 KiB —
// 17 B/tile.
//
// Lifecycle. Without Config.Recycle the allocator only ever appends:
// generations stay 0, packed IDs coincide numerically with the former
// dense sequence 1, 2, 3, ..., and every byte of observable behaviour is
// unchanged. With Recycle enabled, a message whose buffered copies have
// all expired and whose in-flight copies have drained is retired at the
// next round barrier (retireExpired): its final aware count moves to the
// retired ledger, its rows are cleared, its slot's generation increments
// and the slot joins a FIFO free list for the next newMsgID. Memory is
// then bounded by the peak number of concurrently-live messages. A wire
// frame that decodes to a stale generation names a message that no longer
// exists ("ghost"): it is discarded as a detected upset and counted in
// Counters.GhostFrames, so a recycled slot can never alias old traffic.
//
// The retired ledger itself is bounded: entries live in a FIFO ring of
// retiredLedgerCap messages, and when the ring is full the oldest
// retiree is forgotten entirely (Aware reports 0 for it, exactly as for
// a never-issued ID). Retirement order is deterministic, so eviction —
// and the ledger bytes a snapshot serializes, in ring order — is too.

// Per-tile message flags, as reported by Network.flagsOf.
const (
	flagPresent uint8 = 1 << 0 // a copy is in the tile's send buffer
	flagSeen    uint8 = 1 << 1 // the message was delivered here (or originated here)
)

// MsgID packing: low 32 bits select the table slot, high 32 bits carry
// the slot's generation at issue time. Slot 0 is the unused sentinel
// (MsgID 0 means "no message"), so generation-0 packed IDs are exactly
// the dense IDs the engine issued before recycling existed.
const msgGenShift = 32

// packMsgID composes a MsgID from a slot and its generation.
func packMsgID(slot, gen uint32) packet.MsgID {
	return packet.MsgID(gen)<<msgGenShift | packet.MsgID(slot)
}

// msgSlot extracts the table slot of id.
func msgSlot(id packet.MsgID) uint32 { return uint32(id) }

// msgGen extracts the generation tag of id.
func msgGen(id packet.MsgID) uint32 { return uint32(id >> msgGenShift) }

// msgTable is the network-wide message-state store. All per-slot slices
// are indexed by slot; index 0 is the unused sentinel. Scalar state
// (generation, aware count, tombstone, occupancy) is parallel-array; the
// present/seen flags are tile-bitmap rows carved from the row arena.
type msgTable struct {
	words int // words per tile bitmap (ceil(tiles/64))
	arena []uint64

	gens     []uint32   // generation currently bound to each slot
	aware    []int32    // tiles aware (present|seen non-empty)
	copies   []int32    // buffered copies network-wide = popcount(present[s]) (recycle only)
	inflight []int32    // copies scheduled in arrival rings (recycle only)
	dead     []bool     // spread-stop tombstone
	occ      []bool     // slot currently bound to a live message
	present  [][]uint64 // per-slot row: a copy is buffered at tile
	seen     [][]uint64 // per-slot row: delivered at / originated by tile

	// FIFO free list of retired slots: freed at freeTail-side append,
	// reused from freeHead. FIFO (not LIFO) keeps slot reuse order
	// independent of retirement batching, and maximizes the gap between a
	// slot's retirement and its reuse.
	free     []uint32
	freeHead int

	// retired maps a retired message's full packed ID to its final aware
	// count, so Aware stays answerable (and the metrics recorder's
	// awareness series stays frozen, not zeroed) after the slot moved on.
	// Entries are tile-independent and bounded by the ring: retRing holds
	// the same IDs in retirement order, retHead indexing the oldest, and
	// an insertion into a full ring evicts that oldest entry from both
	// structures. Zero-aware retirees are not stored (absent means 0).
	retired map[packet.MsgID]int32
	retRing []packet.MsgID
	retHead int
	// retCap is the ring bound — retiredLedgerCap, overridable by tests.
	retCap int

	live     int // occupied slots
	peakLive int // high-water mark of live
}

// tableArenaRows is how many rows a fresh arena block carves: row
// allocation costs one make per tableArenaRows rows instead of one
// each, and keeps rows of consecutive slots contiguous.
const tableArenaRows = 32

// retiredLedgerCap bounds the retired-awareness ledger. 65536 retirees
// cover every realistic polling window (the metrics recorder samples a
// message's awareness within rounds of its retirement, not 64k messages
// later) while pinning the ledger to ~1.5 MiB worst case.
const retiredLedgerCap = 1 << 16

// initTable sizes the table for a tiles-tile network, empty, with the
// recycle-only counts when recycle is set. A table being reused
// (Network.Reset) keeps its storage: its rows are zeroed and stay in the
// per-slot slices' capacity, where appendSlot takes them back, unless the
// mesh's word count changed.
func (tb *msgTable) initTable(tiles int, recycle bool) {
	if words := (tiles + 63) / 64; words != tb.words {
		clear(tb.present[:cap(tb.present)])
		clear(tb.seen[:cap(tb.seen)])
		tb.words = words
	} else {
		for s := 1; s < len(tb.present); s++ {
			clear(tb.present[s])
			clear(tb.seen[s])
		}
	}
	tb.retCap = retiredLedgerCap
	tb.gens = sentinel(tb.gens)
	tb.aware = sentinel(tb.aware)
	tb.dead = sentinel(tb.dead)
	tb.occ = sentinel(tb.occ)
	tb.present = sentinel(tb.present)
	tb.seen = sentinel(tb.seen)
	tb.copies, tb.inflight = nil, nil
	if recycle {
		tb.copies = sentinel(tb.copies)
		tb.inflight = sentinel(tb.inflight)
	}
	clear(tb.free)
	tb.free, tb.freeHead = tb.free[:0], 0
	clear(tb.retired)
	tb.retRing, tb.retHead = tb.retRing[:0], 0
	tb.live, tb.peakLive = 0, 0
}

// sentinel returns s holding slot 0 alone, zero, reusing its storage.
func sentinel[T any](s []T) []T {
	if cap(s) == 0 {
		return make([]T, 1, 8)
	}
	s = s[:1]
	clear(s)
	return s
}

// row carves one zeroed tile bitmap from the arena.
func (tb *msgTable) row() []uint64 {
	if len(tb.arena) < tb.words {
		tb.arena = make([]uint64, tb.words*tableArenaRows)
	}
	r := tb.arena[:tb.words:tb.words]
	tb.arena = tb.arena[tb.words:]
	return r
}

// nextRow extends rows by one zeroed row: the one initTable kept past its
// length, or a fresh one from the arena.
func (tb *msgTable) nextRow(rows [][]uint64) [][]uint64 {
	if l := len(rows); l < cap(rows) {
		if r := rows[:l+1][l]; len(r) == tb.words {
			return rows[:l+1]
		}
	}
	return append(rows, tb.row())
}

// appendSlot extends every parallel array by one slot and returns its
// index. Slices double via append, so issuing m messages reallocates
// each array O(log m) times over a run.
func (tb *msgTable) appendSlot() uint32 {
	s := uint32(len(tb.gens))
	tb.gens = append(tb.gens, 0)
	tb.aware = append(tb.aware, 0)
	tb.dead = append(tb.dead, false)
	tb.occ = append(tb.occ, false)
	tb.present = tb.nextRow(tb.present)
	tb.seen = tb.nextRow(tb.seen)
	if tb.copies != nil {
		tb.copies = append(tb.copies, 0)
		tb.inflight = append(tb.inflight, 0)
	}
	return s
}

// slots returns how many slots the table holds (excluding the sentinel).
func (tb *msgTable) slots() int { return len(tb.gens) - 1 }

// issuedSlots returns how many message slots the network's table covers —
// with recycling off, exactly how many messages were ever issued.
func (n *Network) issuedSlots() int { return n.tbl.slots() }

// newMsgID binds a slot to a new message and returns its packed ID: a
// retired slot from the free list when recycling, a fresh slot otherwise.
func (n *Network) newMsgID() packet.MsgID {
	tb := &n.tbl
	var s uint32
	if tb.freeHead < len(tb.free) {
		s = tb.free[tb.freeHead]
		tb.freeHead++
		if tb.freeHead == len(tb.free) {
			clear(tb.free)
			tb.free = tb.free[:0]
			tb.freeHead = 0
		}
	} else {
		s = tb.appendSlot()
	}
	tb.occ[s] = true
	tb.live++
	if tb.live > tb.peakLive {
		tb.peakLive = tb.live
	}
	id := packMsgID(s, tb.gens[s])
	n.nextID = id
	return id
}

// retireExpired runs at the round barrier of every Step when recycling is
// enabled: a live message with no buffered copy anywhere and nothing in
// flight can never be heard from again, so its slot is reclaimed. The
// ascending-slot scan and the FIFO free list make retirement — and every
// ID issued after it — deterministic. Scan cost is O(slots), bounded by
// the peak live population, plus the O(tiles/64) row clear of each
// retiree.
func (n *Network) retireExpired() {
	tb := &n.tbl
	for s := 1; s < len(tb.occ); s++ {
		if !tb.occ[s] || tb.copies[s] != 0 || tb.inflight[s] != 0 {
			continue
		}
		if a := tb.aware[s]; a > 0 {
			tb.ledgerAdd(packMsgID(uint32(s), tb.gens[s]), a)
		}
		tb.gens[s]++
		tb.occ[s] = false
		tb.dead[s] = false
		tb.aware[s] = 0
		clear(tb.present[s])
		clear(tb.seen[s])
		tb.free = append(tb.free, uint32(s))
		tb.live--
		n.cnt.Retired++
	}
}

// ledgerAdd records a retiree's final aware count, evicting the oldest
// ledger entry once the ring is full. Barrier only.
func (tb *msgTable) ledgerAdd(id packet.MsgID, aware int32) {
	if tb.retCap <= 0 {
		return
	}
	if tb.retired == nil {
		tb.retired = make(map[packet.MsgID]int32)
	}
	if len(tb.retRing) < tb.retCap {
		tb.retRing = append(tb.retRing, id)
	} else {
		delete(tb.retired, tb.retRing[tb.retHead])
		tb.retRing[tb.retHead] = id
		tb.retHead++
		if tb.retHead == len(tb.retRing) {
			tb.retHead = 0
		}
	}
	tb.retired[id] = aware
}

// ledgerEach calls visit for every ledger entry, oldest first — the
// deterministic order snapshots serialize.
func (tb *msgTable) ledgerEach(visit func(id packet.MsgID, aware int32)) {
	for i := 0; i < len(tb.retRing); i++ {
		j := tb.retHead + i
		if j >= len(tb.retRing) {
			j -= len(tb.retRing)
		}
		id := tb.retRing[j]
		visit(id, tb.retired[id])
	}
}

// current reports whether id names the message its slot is bound to right
// now — the generation check that turns recycled-slot aliases into
// ghosts. Only externally-supplied IDs need it (Aware, AwareAt, decoded
// wire frames, restored packets): IDs reaching the internal hot paths
// ride on live copies, whose existence blocks retirement of their slot.
func (n *Network) current(id packet.MsgID) bool {
	s := msgSlot(id)
	return s != 0 && uint64(s) < uint64(len(n.tbl.gens)) &&
		n.tbl.occ[s] && n.tbl.gens[s] == msgGen(id)
}

// markDead tombstones a delivered unicast under StopSpreadOnDelivery.
func (n *Network) markDead(id packet.MsgID) { n.tbl.dead[msgSlot(id)] = true }

// isDead reports whether id was tombstoned by spread termination. Out of
// range IDs (never issued) are never dead.
func (n *Network) isDead(id packet.MsgID) bool {
	s := msgSlot(id)
	if uint64(s) >= uint64(len(n.tbl.dead)) {
		return false
	}
	return n.tbl.dead[s]
}

// rowBit reads tile t's membership in row r.
func rowBit(r []uint64, t packet.TileID) bool {
	return r[t>>6]&(1<<(t&63)) != 0
}

// rowSet sets tile t's membership in row r and reports whether it was
// already set.
func rowSet(r []uint64, t packet.TileID) bool {
	w := &r[t>>6]
	mask := uint64(1) << (t & 63)
	old := *w
	*w = old | mask
	return old&mask != 0
}

// rowClear clears tile t's membership in row r and reports whether it
// was set.
func rowClear(r []uint64, t packet.TileID) bool {
	w := &r[t>>6]
	mask := uint64(1) << (t & 63)
	old := *w
	*w = old &^ mask
	return old&mask != 0
}

// flagsOf returns t's flags for id, zero if the tile never touched it (or
// if id names a retired generation — per-tile history dies with the slot;
// only the aggregate count survives in the retired ledger).
func (n *Network) flagsOf(t *tile, id packet.MsgID) uint8 {
	if !n.current(id) {
		return 0
	}
	s := msgSlot(id)
	var f uint8
	if rowBit(n.tbl.present[s], t.id) {
		f |= flagPresent
	}
	if rowBit(n.tbl.seen[s], t.id) {
		f |= flagSeen
	}
	return f
}

// setPresent marks the buffered copy of id at t, counting the copy and
// updating the aware count on the unaware -> aware transition. A tile
// buffers at most one copy of a message (enqueue), so the recycle-only
// copy count is the popcount of the slot's present row, kept up on the
// row's bit transitions here and in clearPresent so retireExpired need not
// scan.
func (n *Network) setPresent(t *tile, id packet.MsgID) {
	s := msgSlot(id)
	if rowSet(n.tbl.present[s], t.id) {
		return
	}
	if n.recycle {
		n.tbl.copies[s]++
	}
	if !rowBit(n.tbl.seen[s], t.id) {
		n.tbl.aware[s]++
	}
}

// clearPresent removes the buffered-copy mark and uncounts the copy,
// decrementing the aware count if the tile has also never taken delivery
// — the same instant the scanning Aware() stopped counting the tile.
func (n *Network) clearPresent(t *tile, id packet.MsgID) {
	s := msgSlot(id)
	if !rowClear(n.tbl.present[s], t.id) {
		return
	}
	if n.recycle {
		n.tbl.copies[s]--
	}
	if !rowBit(n.tbl.seen[s], t.id) {
		n.tbl.aware[s]--
	}
}

// setSeen marks id as delivered at (or originated by) t.
func (n *Network) setSeen(t *tile, id packet.MsgID) {
	s := msgSlot(id)
	if rowSet(n.tbl.seen[s], t.id) {
		return
	}
	if !rowBit(n.tbl.present[s], t.id) {
		n.tbl.aware[s]++
	}
}

// MemStats summarizes the state of a Network that grows and shrinks with
// its traffic: the message table, bounded by the live messages, and the
// hot-slot pool, bounded by the frontier. All figures are computed
// from the engine's own bookkeeping (rows, parallel arrays, free lists),
// not from runtime heap statistics, so they are deterministic and
// comparable across runs.
type MemStats struct {
	// Slots is the table's slot count — with recycling, bounded by the
	// peak live population; without, the number of messages ever issued.
	Slots int
	// Live is the number of currently occupied slots.
	Live int
	// PeakLive is the high-water mark of Live over the run.
	PeakLive int
	// RetiredLedger is the number of entries in the retired-awareness
	// ledger (tile-independent, bounded by the ledger ring).
	RetiredLedger int
	// TableBytes is the message table's total footprint: both rows per
	// slot plus every parallel array,
	// the free list and an estimate (two words per map entry plus the
	// ring) of the retired ledger.
	TableBytes int
	// ArmedSlots is the number of tiles holding a hot slot (send buffer
	// and arrival ring): at a round barrier, exactly the frontier — the
	// tiles that buffer a copy or have one in flight toward them. It is
	// the bound the pool is trimmed to.
	ArmedSlots int
	// PooledSlots is the number of emptied slots waiting in the pool for
	// the next tile to warm up. At a round barrier the pool holds at most
	// max(256, ArmedSlots).
	PooledSlots int
	// FabricBytes is the fixed state every tile pays, busy or idle: the
	// tile array plus the port table, at the capacity they hold. Divide by
	// the tile count for the fixed bytes per tile (≈ 72 on a 512×512
	// grid: a 56-byte tile and four 4-byte ports). The topology's own
	// neighbour lists and the IP-core blocks of attached tiles are not
	// included.
	FabricBytes int
}

// Mem returns the current message-table footprint, pool sizes and fixed
// fabric bytes. Divide TableBytes by the tile count for the bytes-per-tile
// figure the scaling experiments report.
func (n *Network) Mem() MemStats {
	tb := &n.tbl
	slots := tb.slots()
	bytes := slots*2*tb.words*8 +
		len(tb.gens)*4 + len(tb.aware)*4 + len(tb.dead) + len(tb.occ) +
		len(tb.copies)*4 + len(tb.inflight)*4 +
		len(tb.free)*4 + len(tb.retired)*16 + len(tb.retRing)*8
	return MemStats{
		Slots:         slots,
		Live:          tb.live,
		PeakLive:      tb.peakLive,
		RetiredLedger: len(tb.retired),
		TableBytes:    bytes,
		ArmedSlots:    n.slots.armed,
		PooledSlots:   len(n.slots.free),
		FabricBytes: cap(n.tiles)*int(unsafe.Sizeof(tile{})) +
			cap(n.portTab)*int(unsafe.Sizeof(port(0))),
	}
}

// awareScan recomputes slot s's aware count from its rows — the
// cardinality of present ∪ seen. Restore uses it to cross-check the
// serialized counts; it is the slow-path truth the incremental count must
// always equal. Barrier only.
func (tb *msgTable) awareScan(s uint32) int32 {
	p, q := tb.present[s], tb.seen[s]
	var c int
	for i := range p {
		c += bits.OnesCount64(p[i] | q[i])
	}
	return int32(c)
}
