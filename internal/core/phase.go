package core

import (
	"fmt"
	"math/bits"

	"repro/internal/packet"
	"repro/internal/rng"
)

// This file holds the four phases of a round (Fig. 3-4): computation on
// the process-bearing tiles, then aging, forwarding and reception as one
// per-tile body each, driven over the occupied tiles by a single frontier
// sweep.

// phaseCompute is phase 1 — computation: run the IP cores; they read the
// mailbox filled during the previous round and may create new messages.
// Only the process-bearing tiles (refreshProcs) are visited.
func (n *Network) phaseCompute() {
	for _, t := range n.procTiles {
		if !t.alive {
			continue
		}
		c := n.cold(t)
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

// sweep runs phase ph on every live occupied tile, in ascending tile
// order — the order the former full-mesh sweeps used, so skipping idle
// tiles is invisible to the event log, the RNG streams and every golden.
// Iteration is two-level: it walks the set summary bits of the frontier
// and only loads the tile words under them, so an idle stretch of the mesh
// costs one summary load per 4096 tiles, not a word scan. The per-tile
// bodies are called directly (a switch, not a function value): the sweep
// is the engine's innermost frame, and an indirect call per occupied tile
// is measurable on dense small meshes.
func (n *Network) sweep(ph sweepPhase) {
	m := &n.bufOcc
	if ph == sweepReceive {
		m = &n.rcvOcc
	}
	for si, sw := range m.sum {
		for ; sw != 0; sw &= sw - 1 {
			wi := si<<6 + bits.TrailingZeros64(sw)
			for w := m.bits[wi]; w != 0; w &= w - 1 {
				t := &n.tiles[wi<<6+bits.TrailingZeros64(w)]
				if !t.alive {
					continue
				}
				switch ph {
				case sweepAge:
					n.ageTile(t)
				case sweepForward:
					n.forwardTile(t)
				default:
					n.receiveTile(t)
				}
			}
		}
	}
}

// ageTile is phase 2 for one tile — aging: decrement TTLs and
// garbage-collect expired messages.
func (n *Network) ageTile(t *tile) {
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
			n.expired++
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
		n.bufOcc.unset(uint32(t.id)) // buffer drained
		n.bufs.put(t.sendBuf)
		t.sendBuf = nil
		if t.ring.count == 0 {
			n.rings.detach(&t.ring) // nothing in flight either: the tile went cold
		}
	}
}

// forwardTile is phase 3 for one tile — forwarding: every buffered message
// goes out on each port independently with probability P; skew-free copies
// arrive within this round, skewed ones slip to later rounds.
func (n *Network) forwardTile(t *tile) {
	buffered := len(t.sendBuf)
	if buffered == 0 {
		return
	}
	// Only a bridge tile (SetForwardLimit, SetRouter) has a limit, a
	// router or a cursor that ever leaves zero: with no limit the whole
	// buffer goes out every round and the round-robin start never moves.
	count, cur := buffered, 0
	var router func(p *packet.Packet) []packet.TileID
	c := n.cold(t)
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
	switch {
	case router != nil || n.cfg.PortWeight != nil:
		ports := n.ports(t)
		for i := 0; i < count; i++ {
			idx := cur + i
			if idx >= buffered {
				idx -= buffered // i < count <= buffered: one wrap at most
			}
			p := &t.sendBuf[idx]
			if router != nil {
				for _, nb := range router(p) {
					n.transmit(t, makePort(nb, n.inj.LinkAlive(t.id, nb)), p)
				}
				continue
			}
			for _, e := range ports {
				prob := n.cfg.P * n.cfg.PortWeight(t.id, e.peer(), p)
				// MakeThreshold+BoolT ≡ Bool(prob), draw for draw.
				if !t.rnd.BoolT(rng.MakeThreshold(prob)) {
					continue
				}
				n.transmit(t, e, p)
			}
		}
	default:
		n.forwardGossip(t, cur, count, buffered)
	}
	if c != nil {
		cur += count
		if cur >= buffered {
			cur -= buffered // count <= buffered: one wrap at most
		}
		c.fwdCursor = cur
	}
}

// forwardGossip is phase 3's default path (no router, no PortWeight):
// each of count messages from window position cur flips one P coin per
// port, in port order, and each copy that wins goes out. With an OnEvent
// listener, literal upsets or skew, transmit handles every copy, right
// after its coin. Otherwise each copy is settled here
// (gossipSettled), with the same draws in the same order (DESIGN.md
// "Forwarding kernels").
func (n *Network) forwardGossip(t *tile, cur, count, buffered int) {
	ports := n.ports(t)
	settle := n.settleUpsets && !n.skew && !n.cfg.Fault.LiteralUpsets
	for i := 0; i < count; i++ {
		idx := cur + i
		if idx >= buffered {
			idx -= buffered // i < count <= buffered: one wrap at most
		}
		p := &t.sendBuf[idx]
		if settle {
			n.gossipSettled(t, p, ports)
			continue
		}
		for _, e := range ports {
			if t.rnd.BoolT(n.pThresh) {
				n.transmit(t, e, p)
			}
		}
	}
}

// gossipSettled is forwardGossip's body for one message when every copy
// can be settled at the sender: no listener, the analytic path, no skew.
// It does what transmit would do for each copy — the energy of every
// copy, nothing more for a dead link, the upset draw, settlement of an
// upset or of a duplicate, send for the rest — but tallies the energy
// once per message. With no upsets to draw, the copies draw nothing, so
// the coins are the message's only draws: they are drawn first, 64 ports
// to a BoolsT mask, and the winners handled after, in port order, with
// the message's present row looked up once (phase 3 writes no present
// bit). With upsets each coin is followed by its copy's upset draw, as in
// transmit.
func (n *Network) gossipSettled(t *tile, p *packet.Packet, ports []port) {
	elide := n.elideDup
	sent := 0
	if n.upsetT == 0 {
		var row []uint64
		for base := 0; base < len(ports); base += 64 {
			mask := t.rnd.BoolsT(n.pThresh, min(64, len(ports)-base))
			if mask == 0 {
				continue
			}
			if elide && row == nil {
				row = n.tbl.present[msgSlot(p.ID)]
			}
			sent += bits.OnesCount64(mask)
			for ; mask != 0; mask &= mask - 1 {
				e := ports[base+bits.TrailingZeros64(mask)]
				if !e.up() {
					continue // crashed link or dead far-end tile
				}
				if nb := e.peer(); elide && rowBit(row, nb) {
					n.cnt.Duplicates++
				} else {
					n.send(nb, n.round, arrival{pkt: *p})
				}
			}
		}
	} else {
		for _, e := range ports {
			if !t.rnd.BoolT(n.pThresh) {
				continue
			}
			sent++
			switch {
			case !e.up():
				// crashed link or dead far-end tile
			case t.rnd.BoolT(n.upsetT):
				n.cnt.UpsetsInjected++
				n.cnt.UpsetsDetected++
			case elide && rowBit(n.tbl.present[msgSlot(p.ID)], e.peer()):
				n.cnt.Duplicates++
			default:
				n.send(e.peer(), n.round, arrival{pkt: *p})
			}
		}
	}
	if sent > 0 {
		n.cnt.Energy.AddTransmissions(sent, p.SizeBits())
	}
}

// transmit sends one copy of *p from tile t out of port e, applying
// the transient fault model. The energy of driving the link is spent even
// when the copy is lost downstream. The copy travels by value (analytic
// path) or as a pooled encoded frame (literal path); either way the
// steady state allocates nothing per transmission. The arrival reaches
// the destination ring through n.send — unless the far end could only
// drop it as a duplicate or, with no OnEvent listener, as an upset, in
// which case it is counted here and never scheduled (Network.elideDup,
// Network.settleUpsets; DESIGN.md "Settlement at the sender"). e carries
// the far end and its inj.LinkAlive verdict — t's port-table entry on the
// gossip paths, made per call on the (cold) router path.
func (n *Network) transmit(t *tile, e port, p *packet.Packet) {
	nb := e.peer()
	n.cnt.Energy.AddTransmission(p.SizeBits())
	n.emit(EvTransmit, t.id, nb, p.ID)
	if !e.up() {
		return // crashed link or dead far-end tile: copy vanishes
	}
	slip := 0
	if n.skew {
		if slip = n.inj.SyncSlip(&t.rnd); slip > 0 {
			n.cnt.SlippedDeliveries++
		}
	}
	when := n.round + slip

	if n.cfg.Fault.LiteralUpsets {
		frame := n.frames.get(packet.EncodedLen(len(p.Payload)))
		if err := packet.EncodeTo(frame, p); err != nil {
			// Oversized payloads are caught at Inject/Send time; an
			// encode failure here is a programming error.
			panic(fmt.Sprintf("core: encode failed in flight: %v", err))
		}
		if t.rnd.BoolT(n.upsetT) {
			n.inj.CorruptFrame(frame, &t.rnd)
			n.cnt.UpsetsInjected++
		}
		// The arrival's by-value packet is unused on the literal path, so
		// its ID field carries the originating message for the in-flight
		// accounting — the frame itself may be corrupted beyond trust.
		n.send(nb, when, arrival{frame: frame, pkt: packet.Packet{ID: p.ID}})
	} else {
		upset := t.rnd.BoolT(n.upsetT)
		if upset {
			n.cnt.UpsetsInjected++
			if slip == 0 && n.settleUpsets {
				// Settled at the sender: phase 4 would count this copy
				// as a detected CRC failure and emit EvUpset, which
				// nobody is listening for — no draw, no tombstone or
				// overflow check, and it arrives this round.
				n.cnt.UpsetsDetected++
				return
			}
		} else if slip == 0 && n.elideDup && rowBit(n.tbl.present[msgSlot(p.ID)], nb) {
			// Settled at the sender: a clean copy arriving this round at
			// a tile that already buffers the message is, in phase 4, a
			// dedup hit and nothing else — no draw, no event, and no
			// delivery (present implies seen at an addressed tile). Phase
			// 3 writes no present bit, so the row is stable here.
			n.cnt.Duplicates++
			return
		}
		n.send(nb, when, arrival{pkt: *p, upset: upset})
	}
}

// receiveTile is phase 4 for one tile — reception: consume the arrivals
// scheduled for this round, CRC-check them, merge survivors into the send
// buffer, deliver.
func (n *Network) receiveTile(t *tile) {
	bucket := t.ring.take(n.round)
	for i := range bucket {
		a := &bucket[i]
		if n.recycle {
			// The arrival is consumed this round whatever its fate;
			// a.pkt.ID still holds the originating ID even on the literal
			// path (stashed by transmit, before any decode).
			n.tbl.inflight[msgSlot(a.pkt.ID)]--
		}
		var p *packet.Packet
		switch {
		case a.frame != nil:
			if p = n.decodeArrival(t, a); p == nil {
				continue // frame already recycled
			}
			n.borrowed = p // payload still aliases the pooled frame
		case a.upset:
			n.cnt.UpsetsDetected++
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
				n.cnt.OverflowDrops++
				n.emit(EvOverflow, t.id, t.id, p.ID)
			} else {
				n.deliver(t, p)
				n.enqueue(t, p)
			}
		}
		if a.frame != nil {
			// Consumed (any stored payload was cloned by unshare): the
			// frame can go back to the pool.
			n.frames.put(a.frame)
			a.frame = nil
			n.borrowed = nil
		}
	}
	t.ring.release(n.round)
	if t.ring.count == 0 {
		n.rcvOcc.unset(uint32(t.id)) // nothing left in flight here
		if len(t.sendBuf) == 0 {
			// Nothing was kept either (every arrival was a reject): the
			// tile went cold. A tile that still buffers a copy keeps its
			// ring for the arrivals its neighbours send next round.
			n.rings.detach(&t.ring)
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
func (n *Network) decodeArrival(t *tile, a *arrival) *packet.Packet {
	err := packet.DecodeInto(&a.pkt, a.frame)
	if err != nil || !n.current(a.pkt.ID) {
		if err == nil {
			if s := msgSlot(a.pkt.ID); s != 0 && s <= uint32(n.issuedSlots()) {
				n.cnt.GhostFrames++
			}
		}
		a.pkt.Payload = nil // drop the alias before pooling the frame
		n.frames.put(a.frame)
		a.frame = nil
		n.cnt.UpsetsDetected++
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
// IP core is counted and flagged but stores nothing.
func (n *Network) deliver(t *tile, p *packet.Packet) {
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
	n.cnt.Deliveries++
	n.cnt.DeliveredPayloadBits += 8 * len(p.Payload)
	n.emit(EvDeliver, t.id, p.Src, p.ID)
	c := n.cold(t)
	if c == nil || c.proc == nil {
		return
	}
	if n.borrowed == p {
		n.unshare(p)
	}
	q := n.pkts.get()
	*q = *p
	c.mailbox = append(c.mailbox, q)
	if rcv, ok := c.proc.(Receiver); ok {
		rcv.Receive(&c.ctx, q)
	}
}

// enqueue merges *p into t's send buffer, which is a set (Fig. 3-4:
// send_buffer ∪ {m}): a message t already buffers is counted as a
// duplicate and dropped, so t holds at most one copy of each message and
// its present bit says exactly whether it holds that copy. The packet is
// copied by value; the caller keeps ownership of *p.
func (n *Network) enqueue(t *tile, p *packet.Packet) {
	if rowBit(n.tbl.present[msgSlot(p.ID)], t.id) {
		n.cnt.Duplicates++
		return
	}
	if n.borrowed == p {
		n.unshare(p)
	}
	if t.sendBuf == nil {
		t.sendBuf, _ = n.bufs.get() // re-arm from the pool; dry = nil, append allocates
	}
	t.sendBuf = append(t.sendBuf, *p)
	if len(t.sendBuf) == 1 {
		n.bufOcc.set(uint32(t.id)) // buffer went non-empty
	}
	n.setPresent(t, p.ID)
}
