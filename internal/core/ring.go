package core

import "repro/internal/packet"

// arrival is a packet copy in flight toward a tile, scheduled to be
// consumed at a specific round. On the analytic path the packet travels by
// value (the header is a few words; the payload rides along as a shared
// pointer), so a transmission costs no heap allocation. On the literal
// path the copy is the encoded wire frame, drawn from the network's frame
// pool.
type arrival struct {
	// pkt is the copy itself on the fast path. When frame is set only
	// pkt.ID is meaningful: it names the originating message for the
	// in-flight accounting of ID recycling (the frame's own ID field may
	// be corrupted beyond trust).
	pkt   packet.Packet
	frame []byte // literal path: encoded, possibly corrupted
	upset bool   // fast path: transmission was scrambled
}

// ringInitLen is the initial bucket count of an arrivalRing. It must be a
// power of two and covers sync slips of up to ringInitLen-1 rounds before
// the ring has to grow; at the σ_synchr values the experiments sweep
// (≤ 2·T_R) slips beyond 7 rounds are ≈4σ events.
const ringInitLen = 8

// ringInitCap is the arrival capacity pre-carved per bucket at first use;
// buckets that overflow it grow individually by append. It is sized for
// the burst that reaches a tile in the round it first receives a message
// (one or two of its neighbours holding it), not for the 4-port fan-in of
// a saturated gossip: those copies are duplicates, which transmit settles
// at the sender. Every tile a broadcast reaches arms a ring, so on a
// fresh network this capacity is most of the per-replica garbage.
const ringInitCap = 2

// arrivalRing schedules in-flight arrivals by absolute round. It replaces
// the per-tile pending map: because a copy transmitted in round r arrives
// in round r+slip and σ_synchr bounds how far slips reach, at most
// maxSlip+1 consecutive rounds are ever in flight, so a small power-of-two
// ring of buckets indexed by round&mask covers them without hashing.
// Consumed buckets are truncated in place and reused when the ring wraps,
// so steady-state scheduling allocates nothing.
type arrivalRing struct {
	buckets [][]arrival // power-of-two length; bucket for round x is x&mask
	count   int         // arrivals in flight across all buckets
}

// schedule enqueues a for consumption at absolute round when. now is the
// round currently executing; when >= now always holds (slips are never
// negative), and the ring grows if the slip outruns its span. A ring that
// has never held an arrival gets initLen buckets first.
func (r *arrivalRing) schedule(now, when int, a arrival, initLen int) {
	if r.buckets == nil {
		r.buckets = newBuckets(initLen)
	}
	if when-now >= len(r.buckets) {
		r.grow(now, when-now+1)
	}
	i := when & (len(r.buckets) - 1)
	r.buckets[i] = append(r.buckets[i], a)
	r.count++
}

// newBuckets allocates a fresh n-bucket ring: the bucket array plus one
// backing block carved into per-bucket slices of capacity ringInitCap, so
// warming a ring costs two allocations instead of a cascade of small
// append growths. Full-slice expressions keep the carved buckets from
// growing into each other.
func newBuckets(n int) [][]arrival {
	buckets := make([][]arrival, n)
	backing := make([]arrival, n*ringInitCap)
	for i := range buckets {
		buckets[i] = backing[i*ringInitCap : i*ringInitCap : (i+1)*ringInitCap]
	}
	return buckets
}

// grow rebuilds the ring with at least span buckets. In-flight arrivals
// occupy the absolute rounds [now, now+len-1]; each old bucket is moved to
// the slot its round maps to under the new mask (collision-free because
// the new length is a strictly larger power of two).
func (r *arrivalRing) grow(now, span int) {
	newLen := len(r.buckets) * 2
	for newLen < span {
		newLen *= 2
	}
	nb := make([][]arrival, newLen)
	for o := range r.buckets {
		ro := now + o
		nb[ro&(newLen-1)] = r.buckets[ro&(len(r.buckets)-1)]
	}
	r.buckets = nb
}

// take returns the bucket scheduled for round now. The caller iterates it
// and then calls release(now); the slice stays owned by the ring.
func (r *arrivalRing) take(now int) []arrival {
	if r.buckets == nil {
		return nil
	}
	return r.buckets[now&(len(r.buckets)-1)]
}

// release recycles round now's bucket after consumption: entries are
// zeroed (dropping payload and frame references for the GC) and the slice
// is truncated in place, keeping its capacity for the round that wraps
// onto this slot.
func (r *arrivalRing) release(now int) {
	if r.buckets == nil {
		return
	}
	i := now & (len(r.buckets) - 1)
	b := r.buckets[i]
	r.count -= len(b)
	for j := range b {
		b[j] = arrival{}
	}
	r.buckets[i] = b[:0]
}

// drain drops every arrival in flight, handing literal-path frames back
// to frames, and leaves every bucket empty and zeroed, as a pooled slot
// requires (Network.Reset).
func (r *arrivalRing) drain(frames *framePool) {
	for i, b := range r.buckets {
		for j := range b {
			if f := b[j].frame; f != nil {
				frames.put(f)
			}
		}
		clear(b)
		r.buckets[i] = b[:0]
	}
	r.count = 0
}
