// Package bitres implements the MP3 bit reservoir (Fig. 4-7's Bit
// Reservoir stage): a frame that encodes under its nominal budget donates
// the leftover bits, and a demanding frame may borrow from the pool,
// smoothing quality at a constant output bit-rate.
package bitres

import "fmt"

// Reservoir is the shared bit pool. The zero value is an empty reservoir
// with no capacity (no borrowing ever).
type Reservoir struct {
	capacity int
	fill     int
}

// New returns a reservoir that can hold up to capacity bits.
func New(capacity int) *Reservoir {
	if capacity < 0 {
		capacity = 0
	}
	return &Reservoir{capacity: capacity}
}

// Grant returns the bit budget for the next frame: the nominal per-frame
// allotment plus up to the full reservoir content.
func (r *Reservoir) Grant(nominal int) int {
	if nominal < 0 {
		nominal = 0
	}
	return nominal + r.fill
}

// Commit settles a frame that was granted `nominal` and actually consumed
// `used` bits. Unused nominal bits flow into the reservoir (up to
// capacity); overdraft is paid out of the reservoir. It returns an error
// if used exceeds the frame's legal maximum (nominal + previous fill) —
// a caller bug, since Grant announced that ceiling.
func (r *Reservoir) Commit(nominal, used int) error {
	if used < 0 || nominal < 0 {
		return fmt.Errorf("bitres: negative commit (%d, %d)", nominal, used)
	}
	if used > nominal+r.fill {
		return fmt.Errorf("bitres: frame used %d bits, granted at most %d",
			used, nominal+r.fill)
	}
	r.fill += nominal - used
	if r.fill > r.capacity {
		r.fill = r.capacity
	}
	if r.fill < 0 {
		// Unreachable given the check above, but keep the invariant.
		r.fill = 0
	}
	return nil
}
