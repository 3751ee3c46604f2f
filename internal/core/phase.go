package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/packet"
	"repro/internal/rng"
)

// This file holds the four phases of a round (Fig. 3-4): computation on
// the process-bearing tiles, then aging, forwarding and reception as one
// per-tile body each, driven over the occupied tiles of a lane's range by
// a single frontier sweep. Phases 2-4 run on the network's lanes
// (shard.go): inline on a one-lane network, per lane between barriers on a
// sharded one.

// phaseCompute is phase 1 — computation: run the IP cores; they read the
// mailbox filled during the previous round and may create new messages.
// Only the process-bearing tiles (refreshProcs) are visited.
func (n *Network) phaseCompute() {
	for _, t := range n.procTiles {
		if !t.alive {
			continue
		}
		c := t.cold
		c.ctx.delivered = c.mailbox
		c.proc.Round(&c.ctx)
		c.ctx.delivered = nil
		clear(c.mailbox)
		c.mailbox = c.mailbox[:0]
	}
}

// sweepPhase names the per-tile body a sweep runs.
type sweepPhase uint8

const (
	sweepAge     sweepPhase = iota // phase 2, over bufOcc
	sweepForward                   // phase 3, over bufOcc
	sweepReceive                   // phase 4, over rcvOcc
)

func (n *Network) phaseAge(ln *lane) { n.sweep(ln, sweepAge) }

func (n *Network) phaseForward(ln *lane) {
	// The lane's outbox was fully merged at the end of the previous round;
	// clearing it here (instead of behind a dedicated barrier) is what
	// keeps the sharded round at three barriers.
	clearOutbox(ln)
	n.sweep(ln, sweepForward)
}

func (n *Network) phaseReceive(ln *lane) { n.sweep(ln, sweepReceive) }

// sweep runs phase ph on every live occupied tile of the lane's range, in
// ascending tile order — the order the former full-mesh sweeps used, so
// skipping idle tiles is invisible to the event log, the RNG streams and
// every golden. Iteration is two-level: the lane walks the set summary
// bits of its frontier segment and only loads the tile words under them,
// so a lane whose range is idle costs O(range/4096) summary loads, not a
// word scan. A lane's range is whole tile words (lo a word boundary, hi a
// word boundary or the mesh end, past which no bit is ever set), so only
// the summary level needs range masks. The per-tile bodies are called
// directly (a switch, not a function value): the sweep is the engine's
// innermost frame, and an indirect call per occupied tile is measurable on
// dense small meshes.
func (n *Network) sweep(ln *lane, ph sweepPhase) {
	m := &n.bufOcc
	if ph == sweepReceive {
		m = &n.rcvOcc
	}
	w0, w1 := ln.lo>>6, (ln.hi+63)>>6
	s0, s1 := w0>>6, (w1+63)>>6
	for si := s0; si < s1; si++ {
		var sw uint64
		if n.par {
			// Summary words can span lanes; other lanes CAS their bits
			// mid-phase.
			sw = atomic.LoadUint64(&m.sum[si])
		} else {
			sw = m.sum[si]
		}
		if si == s0 {
			sw &^= (uint64(1) << (uint(w0) & 63)) - 1 // mask words below w0
		}
		for ; sw != 0; sw &= sw - 1 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			if wi >= w1 {
				break
			}
			for w := m.bits[wi]; w != 0; w &= w - 1 {
				t := &n.tiles[wi<<6+bits.TrailingZeros64(w)]
				if !t.alive {
					continue
				}
				switch ph {
				case sweepAge:
					n.ageTile(ln, t)
				case sweepForward:
					n.forwardTile(ln, t)
				default:
					n.receiveTile(ln, t)
				}
			}
		}
	}
}

// ageTile is phase 2 for one tile — aging: decrement TTLs and
// garbage-collect expired messages.
func (n *Network) ageTile(ln *lane, t *tile) {
	// markDead is the only writer of the tombstone bits and it is gated on
	// StopSpreadOnDelivery, so with the flag off no packet can be dead and
	// the per-packet slot lookup below is pure waste — on a dense mesh the
	// aging sweep touches every live copy every round, and skipping the
	// lookup is worth ~an eighth of the whole phase.
	checkDead := n.cfg.StopSpreadOnDelivery
	// Age in place first: in the steady state nothing expires, and the
	// compaction pass below (which copies every surviving packet) is pure
	// overhead then. isDead cannot change during phase 2, so both passes
	// agree on who expires.
	dropped := false
	for i := range t.sendBuf {
		p := &t.sendBuf[i]
		p.TTL--
		if p.TTL == 0 || (checkDead && n.isDead(p.ID)) {
			dropped = true
		}
	}
	if !dropped {
		return
	}
	kept := t.sendBuf[:0]
	for i := range t.sendBuf {
		p := &t.sendBuf[i]
		if p.TTL == 0 || (checkDead && n.isDead(p.ID)) {
			n.clearPresent(t, p.ID)
			ln.expired++
			n.emit(EvExpire, t.id, t.id, p.ID)
			continue
		}
		kept = append(kept, *p)
	}
	// Zero the compaction tail so expired payloads can be collected.
	for i := len(kept); i < len(t.sendBuf); i++ {
		t.sendBuf[i] = packet.Packet{}
	}
	t.sendBuf = kept
	if len(kept) == 0 {
		n.occClear(&n.bufOcc, uint32(t.id)) // buffer drained
		ln.bufs.put(t.sendBuf)
		t.sendBuf = nil
		if t.ring.count == 0 {
			ln.rings.detach(&t.ring) // nothing in flight either: the tile went cold
		}
	}
}

// forwardTile is phase 3 for one tile — forwarding: every buffered message
// goes out on each port independently with probability P; skew-free copies
// arrive within this round, skewed ones slip to later rounds.
func (n *Network) forwardTile(ln *lane, t *tile) {
	buffered := len(t.sendBuf)
	if buffered == 0 {
		return
	}
	// Only a bridge tile (SetForwardLimit, SetRouter) has a limit, a
	// router or a cursor that ever leaves zero: with no limit the whole
	// buffer goes out every round and the round-robin start never moves.
	count, cur := buffered, 0
	var router func(p *packet.Packet) []packet.TileID
	c := t.cold
	if c != nil {
		if c.fwdLimit > 0 && count > c.fwdLimit {
			count = c.fwdLimit // serializing bridge: TDM slots this round
		}
		// Round-robin over the buffer so a long-lived message cannot hog a
		// rate-limited bridge. The cursor is normalized once (the buffer
		// may have shrunk since last round) and then advanced with
		// wrap-on-overflow subtractions: the inner loop runs per buffered
		// message per round, and a `%` per iteration is measurably slower
		// than a compare-and-subtract.
		cur = c.fwdCursor % buffered
		router = c.router
	}
	if n.batch && n.cfg.PortWeight == nil && router == nil {
		n.forwardBatch(ln, t, cur, count, buffered)
	} else {
		ports := n.ports(t)
		for i := 0; i < count; i++ {
			idx := cur + i
			if idx >= buffered {
				idx -= buffered // i < count <= buffered: one wrap at most
			}
			p := &t.sendBuf[idx]
			if router != nil {
				for _, nb := range router(p) {
					n.transmit(ln, t, nb, p, n.inj.LinkAlive(t.id, nb))
				}
				continue
			}
			if n.cfg.PortWeight != nil {
				for pi, nb := range t.nbrs {
					prob := n.cfg.P * n.cfg.PortWeight(t.id, nb, p)
					// MakeThreshold+BoolT ≡ Bool(prob), draw for draw.
					if !t.rnd.BoolT(rng.MakeThreshold(prob)) {
						continue
					}
					n.transmit(ln, t, nb, p, ports[pi])
				}
				continue
			}
			for pi, nb := range t.nbrs {
				if !t.rnd.BoolT(n.pThresh) {
					continue
				}
				n.transmit(ln, t, nb, p, ports[pi])
			}
		}
	}
	if c != nil {
		cur += count
		if cur >= buffered {
			cur -= buffered // count <= buffered: one wrap at most
		}
		c.fwdCursor = cur
	}
}

// transmit sends one copy of *p from tile t toward neighbor nb, applying
// the transient fault model. The energy of driving the link is spent even
// when the copy is lost downstream. The copy travels by value (analytic
// path) or as a pooled encoded frame (literal path); either way the
// steady state allocates nothing per transmission. The arrival reaches
// the destination ring through ln.send: directly when the lane runs
// direct, via the post-phase outbox merge otherwise — unless the far end
// could only drop it as a duplicate or, with no OnEvent listener, as an
// upset, in which case it is counted here and never scheduled
// (Network.elideDup, Network.settleUpsets; DESIGN.md "Settlement at the
// sender"). linkUp is the cached
// inj.LinkAlive(t.id, nb) verdict — precomputed per port at New on the
// gossip paths, looked up per call on the (cold) router path.
func (n *Network) transmit(ln *lane, t *tile, nb packet.TileID, p *packet.Packet, linkUp bool) {
	ln.cnt.Energy.AddTransmission(p.SizeBits())
	n.emit(EvTransmit, t.id, nb, p.ID)
	if !linkUp {
		return // crashed link or dead far-end tile: copy vanishes
	}
	slip := 0
	if n.skew {
		if slip = n.inj.SyncSlip(&t.rnd); slip > 0 {
			ln.cnt.SlippedDeliveries++
		}
	}
	when := n.round + slip

	if n.cfg.Fault.LiteralUpsets {
		frame := ln.pool.get(packet.EncodedLen(len(p.Payload)))
		if err := packet.EncodeTo(frame, p); err != nil {
			// Oversized payloads are caught at Inject/Send time; an
			// encode failure here is a programming error.
			panic(fmt.Sprintf("core: encode failed in flight: %v", err))
		}
		if t.rnd.BoolT(n.upsetT) {
			n.inj.CorruptFrame(frame, &t.rnd)
			ln.cnt.UpsetsInjected++
		}
		// The arrival's by-value packet is unused on the literal path, so
		// its ID field carries the originating message for the in-flight
		// accounting — the frame itself may be corrupted beyond trust.
		ln.send(nb, when, arrival{frame: frame, pkt: packet.Packet{ID: p.ID}})
	} else {
		upset := t.rnd.BoolT(n.upsetT)
		if upset {
			ln.cnt.UpsetsInjected++
			if slip == 0 && n.settleUpsets {
				// Settled at the sender: phase 4 would count this copy
				// as a detected CRC failure and emit EvUpset, which
				// nobody is listening for — no draw, no tombstone or
				// overflow check, and it arrives this round.
				ln.cnt.UpsetsDetected++
				return
			}
		} else if slip == 0 && n.elideDup && rowBit(n.tbl.present[msgSlot(p.ID)], nb) {
			// Settled at the sender: a clean copy arriving this round at
			// a tile that already buffers the message is, in phase 4, a
			// dedup hit and nothing else — no draw, no event, and no
			// delivery (present implies seen at an addressed tile). Phase
			// 3 writes no present bit on any lane, so the row is stable
			// here and reading another lane's word is race-free.
			ln.cnt.Duplicates++
			return
		}
		ln.send(nb, when, arrival{pkt: *p, upset: upset})
	}
}

// receiveTile is phase 4 for one tile — reception: consume the arrivals
// scheduled for this round, CRC-check them, merge survivors into the send
// buffer, deliver.
func (n *Network) receiveTile(ln *lane, t *tile) {
	bucket := t.ring.take(n.round)
	for i := range bucket {
		a := &bucket[i]
		if n.recycle {
			// The arrival is consumed this round whatever its fate;
			// a.pkt.ID still holds the originating ID even on the literal
			// path (stashed by transmit, before any decode).
			n.addInflight(msgSlot(a.pkt.ID), -1)
		}
		var p *packet.Packet
		switch {
		case a.frame != nil:
			if p = n.decodeArrival(ln, t, a); p == nil {
				continue // frame already recycled
			}
			ln.borrowed = p // payload still aliases the pooled frame
		case a.upset:
			ln.cnt.UpsetsDetected++
			n.emit(EvUpset, t.id, t.id, a.pkt.ID)
			continue
		default:
			p = &a.pkt
		}
		if !n.isDead(p.ID) {
			// Overflow: with probability POverflow the incoming packet
			// finds no buffer space and is lost — the Chapter 2
			// p_overflow, the "% dropped packets" swept by Figs.
			// 4-10/4-11. It is the engine's only buffer-capacity model.
			if t.rnd.BoolT(n.overflowT) {
				ln.cnt.OverflowDrops++
				n.emit(EvOverflow, t.id, t.id, p.ID)
			} else {
				n.deliver(ln, t, p)
				n.enqueue(ln, t, p)
			}
		}
		if a.frame != nil {
			// Consumed (any stored payload was cloned by unshare): the
			// frame can go back to the pool.
			ln.pool.put(a.frame)
			a.frame = nil
			ln.borrowed = nil
		}
	}
	t.ring.release(n.round)
	if t.ring.count == 0 {
		n.occClear(&n.rcvOcc, uint32(t.id)) // nothing left in flight here
		if len(t.sendBuf) == 0 {
			// Nothing was kept either (every arrival was a reject): the
			// tile went cold. A tile that still buffers a copy keeps its
			// ring for the arrivals its neighbours send next round.
			ln.rings.detach(&t.ring)
		}
	}
}

// decodeArrival decodes a literal-path wire frame into the arrival's ring
// slot, applying the CRC check. On success the decoded payload still
// aliases a.frame (DecodeInto is zero-copy), so receiveTile recycles the
// frame only after the arrival is fully consumed; on failure the frame is
// recycled here and nil is returned. A decoded ID the network never
// issued — a slot the table doesn't cover, or a generation the slot is not
// currently bound to — is proof of corruption too: a CRC escape (~2^-16
// per scrambled frame) can smuggle a frame past the checksum, and
// rejecting impossible IDs keeps the tables bounded by the real message
// count. With recycling on, the generation check is also what keeps a
// stale frame from aliasing the slot's next tenant; those near-misses
// (structurally valid slot, wrong tenant) are tallied as GhostFrames.
func (n *Network) decodeArrival(ln *lane, t *tile, a *arrival) *packet.Packet {
	err := packet.DecodeInto(&a.pkt, a.frame)
	if err != nil || !n.current(a.pkt.ID) {
		if err == nil {
			if s := msgSlot(a.pkt.ID); s != 0 && s <= uint32(n.issuedSlots()) {
				ln.cnt.GhostFrames++
			}
		}
		a.pkt.Payload = nil // drop the alias before pooling the frame
		ln.pool.put(a.frame)
		a.frame = nil
		ln.cnt.UpsetsDetected++
		// A scrambled frame's ID is untrustworthy: report Msg 0.
		n.emit(EvUpset, t.id, t.id, 0)
		return nil
	}
	return &a.pkt
}

// deliver records the first-time delivery of *p at t, if it addresses t,
// and hands it to the attached Process, if any: its mailbox gets a heap
// copy (so the ring slot or buffer entry backing *p can be recycled
// freely afterwards), which a Receiver is handed at once. A tile with no
// IP core is counted and flagged but stores nothing. Receiver processes
// never see a parallel phase 4: their presence forces the sequential
// fallback in stepLanes.
func (n *Network) deliver(ln *lane, t *tile, p *packet.Packet) {
	if p.Dst != t.id && p.Dst != packet.Broadcast {
		return
	}
	if rowBit(n.tbl.seen[msgSlot(p.ID)], t.id) {
		return
	}
	n.setSeen(t, p.ID)
	if n.cfg.StopSpreadOnDelivery && p.Dst == t.id {
		n.markDead(p.ID)
	}
	ln.cnt.Deliveries++
	ln.cnt.DeliveredPayloadBits += 8 * len(p.Payload)
	n.emit(EvDeliver, t.id, p.Src, p.ID)
	proc := t.process()
	if proc == nil {
		return
	}
	if ln.borrowed == p {
		ln.unshare(p)
	}
	q := ln.pkts.get()
	*q = *p
	t.cold.mailbox = append(t.cold.mailbox, q)
	if rcv, ok := proc.(Receiver); ok {
		rcv.Receive(&t.cold.ctx, q)
	}
}

// enqueue merges *p into t's send buffer, which is a set (Fig. 3-4:
// send_buffer ∪ {m}): a message t already buffers is counted as a
// duplicate and dropped, so t holds at most one copy of each message and
// its present bit says exactly whether it holds that copy. The packet is
// copied by value; the caller keeps ownership of *p. Counts and events go
// through ln, which must own t (Network.laneOf).
func (n *Network) enqueue(ln *lane, t *tile, p *packet.Packet) {
	if rowBit(n.tbl.present[msgSlot(p.ID)], t.id) {
		ln.cnt.Duplicates++
		return
	}
	if ln.borrowed == p {
		ln.unshare(p)
	}
	if t.sendBuf == nil {
		t.sendBuf, _ = ln.bufs.get() // re-arm from the lane pool; dry = nil, append allocates
	}
	t.sendBuf = append(t.sendBuf, *p)
	if len(t.sendBuf) == 1 {
		n.occSet(&n.bufOcc, uint32(t.id)) // buffer went non-empty
	}
	n.setPresent(t, p.ID)
}
