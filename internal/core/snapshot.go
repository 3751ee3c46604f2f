package core

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/crc"
	"repro/internal/packet"
	"repro/internal/snapshot"
)

// This file implements checkpoint/resume for the round engine: Snapshot
// serializes the complete simulation state at a round barrier, Restore
// rebuilds a Network that continues bit-identically — same events, same
// counters, same RNG draws, same final state — as if the run had never
// stopped. The headline guarantee, pinned by TestSnapshotResume* and the
// randomized differential suite (diff_test.go):
//
//	Restore(Snapshot(run to round k)) → run to round n
//
// equals an uninterrupted n-round run byte for byte, for any k and any
// fault-knob combination.
//
// What the snapshot covers: the per-tile RNG streams, send buffers,
// message-flag tables, forward cursors and limits, mailboxes, in-flight
// arrivals (by-value copies and literal wire frames alike, with their
// scheduled rounds), the network-wide message table (aware counts and
// spread-stop tombstones), the dense ID allocator, the round counter and
// the run Counters. What it deliberately does not cover: the Config
// itself (function hooks cannot be serialized — Restore takes the
// original Config from the caller and verifies a digest of its
// deterministic fields), attached Process state (the IP cores are the
// application's to checkpoint; re-Attach them after Restore), and
// SetRouter functions (re-apply them; forward limits ARE captured).
//
// The fault injector is not serialized either, on purpose: permanent
// failures are sampled deterministically from Config.Seed at New, so the
// rebuilt Network re-derives the exact crash set — one more reason the
// digest pins the seed and fault model.

// corePayloadVersion versions the SecCore payload layout independently of
// the container version. There is one layout: checkpoints are ephemeral
// artifacts written and read by the same build (sim.Checkpointer, the
// service's preemption files), so Restore reads exactly the version
// EncodeState writes and refuses every other with ErrPayloadVersion.
// Version 5 stores the message table slot-major (generations, occupancy,
// bare tile-bitmap rows, the free list, the retired ledger in ring order),
// the Recycle flag, a byte that is always 0 (it once flagged a second draw
// kernel; Restore refuses a 1 with errRetiredKernel), and stamps every
// in-flight wire frame with its originating ID.
const corePayloadVersion = 5

// ErrPayloadVersion is returned (wrapped) by Restore and RestoreSection
// for a SecCore payload whose version is not the one this build writes.
var ErrPayloadVersion = errors.New("core: unsupported checkpoint payload version")

// errRetiredKernel is returned by Restore and RestoreSection for a
// payload whose former batch-kernel byte is set: this build has one draw
// kernel, and resuming such a run under it would change its realisation.
var errRetiredKernel = errors.New("core: checkpoint written under the retired batch draw kernel")

// arrival discriminants in the in-flight encoding.
const (
	arrValue uint8 = iota // by-value copy, clean
	arrUpset              // by-value copy, scrambled in flight (analytic path)
	arrFrame              // literal path: encoded, possibly corrupted wire frame
)

// ConfigDigest returns a checksum over cfg's deterministic,
// behavior-defining fields and the full topology wiring. A snapshot
// embeds the digest of the run that produced it; Restore refuses a cfg
// whose digest differs, catching the classic checkpoint bug — resuming
// under a subtly different configuration — before it can corrupt a
// campaign. The function fields (hooks, PortWeight) are excluded; the
// caller must re-supply them unchanged.
func ConfigDigest(cfg *Config) uint32 {
	w := snapshot.NewWriter()
	// Tile IDs widened to 32 bits with the mega-mesh work, but digests of
	// pre-existing checkpoints hash 16-bit IDs; meshes that fit keep the
	// narrow hashing so those digests stay verifiable.
	tileW := func(t packet.TileID) { w.U16(uint16(t)) }
	if cfg.Topo.Tiles() > int(packet.MaxWireTile) {
		tileW = func(t packet.TileID) { w.U32(uint32(t)) }
	}
	w.Int(cfg.Topo.Tiles())
	for i := 0; i < cfg.Topo.Tiles(); i++ {
		nbrs := cfg.Topo.Neighbors(packet.TileID(i))
		w.Int(len(nbrs))
		for _, nb := range nbrs {
			tileW(nb)
		}
	}
	w.F64(cfg.P)
	w.U8(cfg.TTL)
	w.Int(cfg.MaxRounds)
	w.U64(cfg.Seed)
	w.Bool(cfg.StopSpreadOnDelivery)
	f := &cfg.Fault
	w.F64(f.PTileCrash)
	w.Int(f.DeadTiles)
	w.F64(f.PLinkCrash)
	w.Int(f.DeadLinks)
	w.F64(f.PUpset)
	w.F64(f.POverflow)
	w.F64(f.SigmaSync)
	w.Bool(f.LiteralUpsets)
	w.Int(int(f.ErrorModel))
	w.Int(len(f.Protect))
	for _, t := range f.Protect {
		tileW(t)
	}
	return crc.Checksum32(w.Bytes())
}

// configDigest is ConfigDigest(&n.cfg), computed on first use after New,
// Restore or Reset: it walks every port of the fabric, and the config does
// not change until the next Reset.
func (n *Network) configDigest() uint32 {
	if !n.digestSet {
		n.digest, n.digestSet = ConfigDigest(&n.cfg), true
	}
	return n.digest
}

// Snapshot serializes the network's complete simulation state to w as a
// single-section checkpoint container. It must be called at a round
// barrier — between Steps, where no phase is executing — which is the only
// place callers can call it anyway. The snapshot is deterministic: two
// networks in identical states produce identical bytes, which the
// differential suite exploits as a whole-state equality oracle.
func (n *Network) Snapshot(w io.Writer) error {
	enc := snapshot.NewEncoder(w)
	n.EncodeState(enc.Section(snapshot.SecCore))
	return enc.Close()
}

// EncodeState writes the engine state as a SecCore payload. It is the
// composable form of Snapshot, for callers (package sim) that assemble
// containers with additional sections (metrics series, replica
// metadata).
func (n *Network) EncodeState(w *snapshot.Writer) {
	w.Int(corePayloadVersion)
	w.U32(n.configDigest())
	// The recycle flag lives in the payload, not the digest (so older
	// digests stay valid); restore still refuses a mismatch with
	// cfg.Recycle — the retirement barrier is behavior-defining. The byte
	// after it flagged the retired batch draw kernel and is always 0.
	w.Bool(n.recycle)
	w.Bool(false)
	w.Int(n.round)
	w.Uvarint(uint64(n.nextID))
	w.Bool(n.started)

	// Counters.
	w.Int(n.cnt.Energy.Transmissions)
	w.Int(n.cnt.Energy.Bits)
	w.Int(n.cnt.UpsetsInjected)
	w.Int(n.cnt.UpsetsDetected)
	w.Int(n.cnt.OverflowDrops)
	w.Int(n.cnt.SlippedDeliveries)
	w.Int(n.cnt.Deliveries)
	w.Int(n.cnt.DeliveredPayloadBits)
	w.Int(n.cnt.Duplicates)
	w.Int(n.cnt.Retired)
	w.Int(n.cnt.GhostFrames)

	// Message table, slot-major (slot 0 is the unused sentinel). Rows are
	// only stored for occupied slots — a retired slot's rows are zero by
	// construction. Buffered-copy and in-flight counts are not stored:
	// restore recomputes them from the send buffers and arrival rings
	// they summarize.
	tb := &n.tbl
	w.Int(tb.slots())
	for s := 1; s <= tb.slots(); s++ {
		w.U32(tb.gens[s])
		var bits uint8
		if tb.occ[s] {
			bits |= slotOccupied
		}
		if tb.dead[s] {
			bits |= slotDead
		}
		w.U8(bits)
		if tb.occ[s] {
			w.Int(int(tb.aware[s]))
			encodeRow(w, tb.present[s])
			encodeRow(w, tb.seen[s])
		}
	}
	// Free list, in FIFO order — slot reuse order is observable through
	// the IDs a resumed run issues, so it must survive the round trip.
	w.Int(len(tb.free) - tb.freeHead)
	for _, s := range tb.free[tb.freeHead:] {
		w.U32(s)
	}
	// Retired ledger, in ring (retirement) order — the order the bounded
	// ledger evicts in, which a resumed run must share for its future
	// evictions (and its future snapshots) to stay byte-identical.
	// Retirement order is deterministic, so so are these bytes.
	w.Int(len(tb.retired))
	tb.ledgerEach(func(id packet.MsgID, aware int32) {
		w.Uvarint(uint64(id))
		w.Int(int(aware))
	})

	// Per-tile state: at least the four RNG state words and five one-byte
	// counts a tile, reserved at once rather than grown into by doubling.
	w.Grow(len(n.tiles) * (4*8 + 5))
	w.Int(len(n.tiles))
	for i := range n.tiles {
		t := &n.tiles[i]
		for _, s := range t.rnd.State() {
			w.U64(s)
		}
		// A tile without an IP-core block encodes as the zero one.
		var c coldTile
		if tc := n.cold(t); tc != nil {
			c = *tc
		}
		w.Int(c.fwdCursor)
		w.Int(c.fwdLimit)
		w.Int(len(t.sendBuf))
		for i := range t.sendBuf {
			encodePacket(w, &t.sendBuf[i])
		}
		w.Int(len(c.mailbox))
		for _, p := range c.mailbox {
			encodePacket(w, p)
		}
		encodeRing(w, &t.ring, n.round)
	}
}

// Message-table slot state bits.
const (
	slotOccupied uint8 = 1 << 0
	slotDead     uint8 = 1 << 1
)

// encodePacket writes one packet, tile IDs at their in-memory 32 bits.
func encodePacket(w *snapshot.Writer, p *packet.Packet) {
	w.Uvarint(uint64(p.ID))
	w.U32(uint32(p.Src))
	w.U32(uint32(p.Dst))
	w.U8(uint8(p.Kind))
	w.U8(p.TTL)
	w.WriteBytes(p.Payload)
}

// encodeRing writes a tile's in-flight arrivals in consumption order. At
// a round barrier every live arrival is scheduled for a round in
// (round, round+len(buckets)]; each non-empty bucket index maps to
// exactly one round in that window, so arrivals are emitted ordered by
// (scheduled round, insertion order) — the order a resumed engine must
// reproduce.
func encodeRing(w *snapshot.Writer, r *arrivalRing, round int) {
	w.Int(r.count)
	for d := 1; d <= len(r.buckets); d++ {
		when := round + d
		bucket := r.buckets[when&(len(r.buckets)-1)]
		for i := range bucket {
			a := &bucket[i]
			w.Int(d)
			switch {
			case a.frame != nil:
				w.U8(arrFrame)
				// The originating ID rides along (see arrival): the
				// in-flight accounting of ID recycling needs it, and the
				// frame bytes may be corrupted beyond trust. Zero only in
				// the pre-recycling lineage of testdata/compat, which
				// cannot run with recycling anyway.
				w.Uvarint(uint64(a.pkt.ID))
				w.WriteBytes(a.frame)
			case a.upset:
				w.U8(arrUpset)
				encodePacket(w, &a.pkt)
			default:
				w.U8(arrValue)
				encodePacket(w, &a.pkt)
			}
		}
	}
}

// Restore reads a checkpoint container written by Snapshot and rebuilds
// the network mid-run. cfg must be the configuration of the run that
// produced the snapshot — same topology, seed, fault model and protocol
// knobs (verified against the embedded digest) — though the function
// fields may differ; see EncodeState's file comment for what
// the caller must re-apply (processes, routers). The returned network
// continues from the snapshotted round exactly as the original would
// have.
func Restore(r io.Reader, cfg Config) (*Network, error) {
	dec, err := snapshot.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	sec, err := dec.Section(snapshot.SecCore)
	if err != nil {
		return nil, err
	}
	return RestoreSection(sec, cfg)
}

// RestoreSection rebuilds a network from a decoded SecCore payload — the
// composable form of Restore used by package sim's multi-section
// checkpoint files. The reader must be positioned at the start of the
// payload and is fully consumed.
func RestoreSection(sec *snapshot.Reader, cfg Config) (*Network, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if v := sec.Int(); sec.Err() == nil && v != corePayloadVersion {
		return nil, fmt.Errorf("%w %d, this build reads only %d", ErrPayloadVersion, v, corePayloadVersion)
	}
	if d := sec.U32(); sec.Err() == nil && d != n.configDigest() {
		return nil, fmt.Errorf("core: checkpoint was taken under a different configuration (digest %08x != %08x)", d, n.configDigest())
	}
	if recycle := sec.Bool(); sec.Err() == nil && recycle != n.recycle {
		return nil, fmt.Errorf("core: checkpoint written with Recycle=%v, config says %v", recycle, n.recycle)
	}
	if batch := sec.Bool(); sec.Err() == nil && batch {
		return nil, errRetiredKernel
	}
	n.round = sec.Int()
	id := sec.Uvarint()
	n.started = sec.Bool()

	n.cnt.Energy.Transmissions = sec.Int()
	n.cnt.Energy.Bits = sec.Int()
	n.cnt.UpsetsInjected = sec.Int()
	n.cnt.UpsetsDetected = sec.Int()
	n.cnt.OverflowDrops = sec.Int()
	n.cnt.SlippedDeliveries = sec.Int()
	n.cnt.Deliveries = sec.Int()
	n.cnt.DeliveredPayloadBits = sec.Int()
	n.cnt.Duplicates = sec.Int()
	n.cnt.Retired = sec.Int()
	n.cnt.GhostFrames = sec.Int()

	// Message table. Each slot costs at least 5 bytes (generation + state
	// bits), which bounds a hostile count before anything is allocated.
	tb := &n.tbl
	nslots := sec.Count(5)
	for s := 1; s <= nslots; s++ {
		tb.appendSlot()
		tb.gens[s] = sec.U32()
		bits := sec.U8()
		if sec.Err() != nil {
			return nil, sec.Err()
		}
		if bits&^(slotOccupied|slotDead) != 0 {
			return nil, fmt.Errorf("core: slot %d has unknown state bits %#x", s, bits)
		}
		if !n.recycle && (bits&slotOccupied == 0 || tb.gens[s] != 0) {
			return nil, fmt.Errorf("core: slot %d retired or generation-tagged in a non-recycling checkpoint", s)
		}
		if bits&slotOccupied == 0 {
			if bits&slotDead != 0 {
				return nil, fmt.Errorf("core: slot %d dead but not occupied", s)
			}
			continue
		}
		tb.occ[s] = true
		tb.dead[s] = bits&slotDead != 0
		tb.live++
		aware := sec.Int()
		if sec.Err() == nil && (aware < 0 || aware > len(n.tiles)) {
			return nil, fmt.Errorf("core: slot %d aware count %d out of [0, %d]", s, aware, len(n.tiles))
		}
		tb.aware[s] = int32(aware)
		if err := decodeRow(sec, tb.present[s], len(n.tiles)); err != nil {
			return nil, fmt.Errorf("core: slot %d present row: %w", s, err)
		}
		if err := decodeRow(sec, tb.seen[s], len(n.tiles)); err != nil {
			return nil, fmt.Errorf("core: slot %d seen row: %w", s, err)
		}
	}
	tb.peakLive = tb.live
	if nfree := sec.Count(4); sec.Err() == nil {
		if nfree != nslots-tb.live {
			return nil, fmt.Errorf("core: free list holds %d slots, table has %d retired", nfree, nslots-tb.live)
		}
		listed := make([]bool, nslots+1)
		for i := 0; i < nfree; i++ {
			s := sec.U32()
			if sec.Err() != nil {
				break
			}
			if s == 0 || s > uint32(nslots) || tb.occ[s] || listed[s] {
				return nil, fmt.Errorf("core: free list entry %d invalid (slot %d)", i, s)
			}
			listed[s] = true
			tb.free = append(tb.free, s)
		}
	}
	// Retired ledger, in ring (retirement) order; the ring is bounded. A
	// duplicate entry would shrink the map against the ring, caught by the
	// length check below.
	nret := sec.Count(2)
	if sec.Err() == nil && nret > tb.retCap {
		return nil, fmt.Errorf("core: retired ledger holds %d entries, cap is %d", nret, tb.retCap)
	}
	for i := 0; i < nret; i++ {
		rid := packet.MsgID(sec.Uvarint())
		aware := sec.Int()
		if sec.Err() != nil {
			break
		}
		s := msgSlot(rid)
		if s == 0 || s > uint32(nslots) || msgGen(rid) >= tb.gens[s] {
			return nil, fmt.Errorf("core: retired ledger names impossible message %d", rid)
		}
		if aware < 1 || aware > len(n.tiles) {
			return nil, fmt.Errorf("core: retired message %d aware count %d out of [1, %d]", rid, aware, len(n.tiles))
		}
		if tb.retired == nil {
			tb.retired = make(map[packet.MsgID]int32, nret)
		}
		tb.retired[rid] = int32(aware)
		tb.retRing = append(tb.retRing, rid)
	}
	if sec.Err() == nil && len(tb.retired) != len(tb.retRing) {
		return nil, fmt.Errorf("core: retired ledger repeats an ID")
	}

	// nextID must name the table's coordinates: its slot in range, its
	// generation no later than the slot's current binding.
	if sec.Err() == nil {
		if nslots == 0 && id != 0 {
			return nil, fmt.Errorf("core: checkpoint nextID %d but empty message table", id)
		}
		if nslots > 0 {
			nid := packet.MsgID(id)
			if s := msgSlot(nid); s == 0 || s > uint32(nslots) || msgGen(nid) > tb.gens[s] {
				return nil, fmt.Errorf("core: checkpoint nextID %d implausible", id)
			}
		}
		n.nextID = packet.MsgID(id)
	}

	if err := restoreTiles(sec, n); err != nil {
		return nil, err
	}
	if err := sec.Finish(); err != nil {
		return nil, err
	}
	// The occupancy bitmaps the phase sweeps iterate are derived state.
	n.rebuildOccupancy()
	return n, n.crossCheckAware()
}

// restoreTiles decodes the per-tile array and checks the invariant
// enqueue keeps: a tile's present bit for a message is set exactly when
// its send buffer holds one copy. Decoding takes each buffered copy's
// bit and counts the copy (recycling retires on the counts); a copy that
// finds no bit to take is a repeat or was never flagged, and a bit left
// over has no copy. The bits are then put back.
func restoreTiles(sec *snapshot.Reader, n *Network) error {
	if tiles := sec.Count(1); sec.Err() == nil && tiles != len(n.tiles) {
		return fmt.Errorf("core: checkpoint holds %d tiles, topology has %d", tiles, len(n.tiles))
	}
	for i := range n.tiles {
		t := &n.tiles[i]
		if err := restoreTileScalars(sec, n, t); err != nil {
			return err
		}
		if err := restoreTileTraffic(sec, n, t); err != nil {
			return err
		}
	}
	for s := 1; s < len(n.tbl.present); s++ {
		if slices.ContainsFunc(n.tbl.present[s], func(w uint64) bool { return w != 0 }) {
			return fmt.Errorf("core: slot %d present at a tile that buffers no copy of it", s)
		}
	}
	for i := range n.tiles {
		t := &n.tiles[i]
		for j := range t.sendBuf {
			rowSet(n.tbl.present[msgSlot(t.sendBuf[j].ID)], t.id)
		}
	}
	return nil
}

// restoreTileScalars decodes a tile's RNG state, forwarding cursor and
// forward limit; only a bridge tile has the latter two non-zero, and only
// it gets an IP-core block for them.
func restoreTileScalars(sec *snapshot.Reader, n *Network, t *tile) error {
	var st [4]uint64
	for i := range st {
		st[i] = sec.U64()
	}
	if sec.Err() == nil {
		if err := t.rnd.SetState(st); err != nil {
			return fmt.Errorf("core: tile %d: %w", t.id, err)
		}
	}
	if cursor, limit := sec.Int(), sec.Int(); cursor != 0 || limit != 0 {
		c := n.coldOf(t)
		c.fwdCursor, c.fwdLimit = cursor, limit
	}
	return nil
}

// restoreTileTraffic decodes a tile's send buffer, mailbox and arrival
// ring, taking each buffered copy's present bit (see restoreTiles). Buffer
// and ring are armed through the pools, so their armed counts cover
// restored tiles like any other.
func restoreTileTraffic(sec *snapshot.Reader, n *Network, t *tile) error {
	nbuf := sec.Count(1)
	if nbuf > 0 {
		buf, _ := n.bufs.get() // dry after New: counts the buffer as armed
		t.sendBuf = slices.Grow(buf, nbuf)
	}
	for i := 0; i < nbuf; i++ {
		p, err := decodePacket(sec, n, false)
		if err != nil {
			return fmt.Errorf("core: tile %d send buffer: %w", t.id, err)
		}
		if !rowClear(n.tbl.present[msgSlot(p.ID)], t.id) {
			return fmt.Errorf("core: tile %d buffers message %d twice or without its present bit", t.id, p.ID)
		}
		if n.recycle {
			n.tbl.copies[msgSlot(p.ID)]++
		}
		t.sendBuf = append(t.sendBuf, p)
	}
	nmail := sec.Count(1)
	for i := 0; i < nmail; i++ {
		// Mailbox copies await phase-1 consumption by the Process the
		// caller re-attaches, and do not hold their message live: the ID
		// may already name a retired generation.
		p, err := decodePacket(sec, n, true)
		if err != nil {
			return fmt.Errorf("core: tile %d mailbox: %w", t.id, err)
		}
		c := n.coldOf(t)
		c.mailbox = append(c.mailbox, &p)
	}
	if err := decodeRing(sec, n, t); err != nil {
		return fmt.Errorf("core: tile %d arrival ring: %w", t.id, err)
	}
	return nil
}

// encodeRow writes one tile bitmap as its bare words; the count is the
// mesh geometry's, so it is not stored.
func encodeRow(w *snapshot.Writer, r []uint64) {
	for _, word := range r {
		w.U64(word)
	}
}

// decodeRow reads one tile bitmap (fixed word count) and rejects set bits
// beyond the last tile — phantom tiles would corrupt the popcount
// cross-check and every word-wise scan downstream.
func decodeRow(sec *snapshot.Reader, row []uint64, tiles int) error {
	for i := range row {
		row[i] = sec.U64()
	}
	if err := sec.Err(); err != nil {
		return err
	}
	if tail := tiles & 63; tail != 0 {
		if row[len(row)-1]&^(uint64(1)<<tail-1) != 0 {
			return fmt.Errorf("bits set beyond tile %d", tiles-1)
		}
	}
	return nil
}

// crossCheckAware verifies every occupied slot's serialized aware count
// against the popcount of its rows: an inconsistency means a
// corrupt-but-CRC-colliding payload or an encoder bug, and either must
// not reach a run. Word-wise, so the check is O(slots × tiles/64).
func (n *Network) crossCheckAware() error {
	tb := &n.tbl
	for s := 1; s <= tb.slots(); s++ {
		if !tb.occ[s] {
			continue
		}
		if scan := tb.awareScan(uint32(s)); scan != tb.aware[s] {
			return fmt.Errorf("core: slot %d aware count %d inconsistent with its rows (%d)", s, tb.aware[s], scan)
		}
	}
	return nil
}

// decodePacket reads one packet, validating every field against the
// restored network's bounds: IDs must name the current tenant of their
// slot (live copies pin their message), tile IDs must exist (Dst may also
// be Broadcast), and buffered TTLs must be alive — values a snapshot of a
// consistent engine can never contain otherwise. The one exception is a
// zero TTL under Fault.LiteralUpsets: the TTL byte of a wire frame is
// outside the CRC, so a flipped bit there is accepted, and the copy sits
// in a buffer at TTL 0 until the next aging wraps it. allowStale admits
// IDs of already-retired generations, which only mailbox copies may carry.
func decodePacket(sec *snapshot.Reader, n *Network, allowStale bool) (packet.Packet, error) {
	var p packet.Packet
	p.ID = packet.MsgID(sec.Uvarint())
	p.Src = packet.TileID(sec.U32())
	p.Dst = packet.TileID(sec.U32())
	p.Kind = packet.Kind(sec.U8())
	p.TTL = sec.U8()
	payload := sec.ReadBytes()
	if len(payload) > 0 {
		p.Payload = payload
	}
	if err := sec.Err(); err != nil {
		return p, err
	}
	if !n.validRestoredID(p.ID, allowStale) {
		return p, fmt.Errorf("packet names message %d, which the table does not hold", p.ID)
	}
	if int(p.Src) >= len(n.tiles) {
		return p, fmt.Errorf("packet source tile %d out of range", p.Src)
	}
	if p.Dst != packet.Broadcast && int(p.Dst) >= len(n.tiles) {
		return p, fmt.Errorf("packet destination tile %d out of range", p.Dst)
	}
	if p.TTL == 0 && !n.cfg.Fault.LiteralUpsets {
		return p, fmt.Errorf("packet with expired TTL")
	}
	if len(payload) > packet.MaxPayload {
		return p, fmt.Errorf("payload of %d bytes exceeds MaxPayload", len(payload))
	}
	return p, nil
}

// validRestoredID reports whether a deserialized MsgID is admissible:
// current always, a retired generation of an issued slot when allowStale.
func (n *Network) validRestoredID(id packet.MsgID, allowStale bool) bool {
	if n.current(id) {
		return true
	}
	if !allowStale {
		return false
	}
	s := msgSlot(id)
	return s != 0 && uint64(s) < uint64(len(n.tbl.gens)) && msgGen(id) < n.tbl.gens[s]
}

// maxRestoredSlip bounds how far ahead a restored arrival may be
// scheduled. Slips are ⌊|N(0, σ_synchr)|⌋ draws; at the σ values the
// experiments sweep (≤ 2·T_R) a slip anywhere near this bound is a
// >10000σ event, so any payload claiming one is corrupt — and the bound
// keeps a hostile delta from forcing the arrival ring to grow without
// limit during restore.
const maxRestoredSlip = 1 << 16

// decodeRing rebuilds t's in-flight arrivals by rescheduling them in the
// serialized (consumption) order, which reconstructs both the ring
// geometry and each bucket's insertion order. Every rescheduled arrival
// raises its message's in-flight count (the mirror of Network.send), which
// is what keeps retirement from freeing a slot whose frames are still in
// the air. A frame with originating ID zero (see encodeRing) is admissible
// only without recycling.
func decodeRing(sec *snapshot.Reader, n *Network, t *tile) error {
	count := sec.Count(3) // delta + kind + at least one payload byte
	for i := 0; i < count; i++ {
		d := sec.Int()
		if sec.Err() == nil && (d < 1 || d > maxRestoredSlip) {
			return fmt.Errorf("arrival slip %d out of range [1, %d]", d, maxRestoredSlip)
		}
		var a arrival
		switch kind := sec.U8(); kind {
		case arrFrame:
			a.pkt.ID = packet.MsgID(sec.Uvarint())
			if sec.Err() == nil && a.pkt.ID == 0 && n.recycle {
				return fmt.Errorf("in-flight frame without originating ID in a recycling checkpoint")
			}
			if sec.Err() == nil && a.pkt.ID != 0 && !n.current(a.pkt.ID) {
				return fmt.Errorf("in-flight frame originates from message %d, which the table does not hold", a.pkt.ID)
			}
			a.frame = sec.ReadBytes()
			if sec.Err() == nil && len(a.frame) < packet.EncodedLen(0) {
				return fmt.Errorf("wire frame of %d bytes shorter than a header", len(a.frame))
			}
		case arrUpset, arrValue:
			p, err := decodePacket(sec, n, false)
			if err != nil {
				return err
			}
			a.pkt = p
			a.upset = kind == arrUpset
		default:
			if sec.Err() != nil {
				return sec.Err()
			}
			return fmt.Errorf("unknown arrival kind %d", kind)
		}
		if err := sec.Err(); err != nil {
			return err
		}
		if n.recycle {
			n.tbl.inflight[msgSlot(a.pkt.ID)]++
		}
		t.ring.schedule(n.round, n.round+d, a, &n.rings)
	}
	return nil
}
