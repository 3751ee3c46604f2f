// Package fault implements the NoC failure model of thesis Chapter 2.
//
// The model has five parameters:
//
//   - PTileCrash / PLinkCrash (or exact counts DeadTiles / DeadLinks):
//     permanent crash failures, injected before the simulation starts —
//     the thesis notes permanent failures are infrequent and treats them
//     as initial defects swept by Fig. 4-4/4-5;
//   - PUpset: probability that a packet transmission is scrambled by a
//     data upset (detected and discarded via CRC at the receiver);
//   - POverflow: probability that a received packet is lost to buffer
//     overflow (oldest messages dropped first, §4.2);
//   - SigmaSync: standard deviation of the round duration relative to T_R,
//     modeling mixed-clock (GALS) synchronization errors as extra delivery
//     delay.
//
// Upsets can be modeled two ways, selectable with LiteralUpsets: either
// the frame's bits are literally flipped per an error-vector model of
// Chapter 2 and the receiving tile's CRC does the discarding (the faithful
// path), or the transmission is analytically dropped with probability
// PUpset (the fast path — equivalent up to CRC's ~2^-16 undetected-error
// probability).
package fault

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// Model is the Chapter 2 failure model configuration. The zero value is a
// fault-free network.
type Model struct {
	// PTileCrash is the independent probability that each tile is dead.
	// Ignored if DeadTiles > 0.
	PTileCrash float64
	// DeadTiles, if positive, kills exactly this many unprotected tiles,
	// chosen uniformly at random (the Fig. 4-4 sweep variable).
	DeadTiles int
	// PLinkCrash is the independent probability that each link is dead.
	// Ignored if DeadLinks > 0.
	PLinkCrash float64
	// DeadLinks, if positive, kills exactly this many links.
	DeadLinks int
	// PUpset is the per-transmission data upset probability.
	PUpset float64
	// POverflow is the per-reception buffer overflow drop probability.
	POverflow float64
	// SigmaSync is the relative (σ/T_R) standard deviation of round
	// duration; Fig. 4-10's x-axis expresses it in percent.
	SigmaSync float64
	// LiteralUpsets selects literal bit-flips + CRC detection instead of
	// analytic transmission drops.
	LiteralUpsets bool
	// ErrorModel selects the bit-flip pattern for literal upsets.
	ErrorModel packet.ErrorModel
	// Protect lists tiles that crash injection must never kill (e.g. the
	// tile hosting a non-replicated master IP).
	Protect []packet.TileID
}

// Validate reports a configuration error, if any.
func (m *Model) Validate() error {
	for name, p := range map[string]float64{
		"PTileCrash": m.PTileCrash, "PLinkCrash": m.PLinkCrash,
		"PUpset": m.PUpset, "POverflow": m.POverflow,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("fault: %s = %v out of [0,1]", name, p)
		}
	}
	if m.SigmaSync < 0 {
		return fmt.Errorf("fault: SigmaSync = %v negative", m.SigmaSync)
	}
	if m.DeadTiles < 0 || m.DeadLinks < 0 {
		return fmt.Errorf("fault: negative crash count")
	}
	return nil
}

// Injector is the runtime fault state for one simulation: the sampled set
// of permanent crash failures plus the transient-fault parameters. Methods
// that consume randomness take an explicit stream so the caller controls
// determinism. Injector is safe for concurrent readers once built.
type Injector struct {
	model     Model
	tileAlive []bool
	linkDead  map[uint64]bool
	// upsetT/overflowT are PUpset/POverflow in 53-bit fixed point,
	// precomputed once so the per-transmission and per-reception draws are
	// single integer compares (decision-identical to the float path; see
	// rng.MakeThreshold).
	upsetT    rng.Threshold
	overflowT rng.Threshold
}

func linkKey(a, b packet.TileID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// NewInjector samples the permanent failures of model over topo using r.
// It returns an error for invalid configurations or if the requested crash
// counts exceed the available tiles/links.
func NewInjector(topo topology.Topology, model Model, r *rng.Stream) (*Injector, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		model:     model,
		tileAlive: make([]bool, topo.Tiles()),
		linkDead:  map[uint64]bool{},
		upsetT:    rng.MakeThreshold(model.PUpset),
		overflowT: rng.MakeThreshold(model.POverflow),
	}
	for i := range inj.tileAlive {
		inj.tileAlive[i] = true
	}
	protected := map[packet.TileID]bool{}
	for _, t := range model.Protect {
		protected[t] = true
	}

	// Tile crashes.
	if model.DeadTiles > 0 {
		candidates := make([]packet.TileID, 0, topo.Tiles())
		for i := 0; i < topo.Tiles(); i++ {
			if !protected[packet.TileID(i)] {
				candidates = append(candidates, packet.TileID(i))
			}
		}
		if model.DeadTiles > len(candidates) {
			return nil, fmt.Errorf("fault: DeadTiles=%d exceeds %d unprotected tiles",
				model.DeadTiles, len(candidates))
		}
		for _, idx := range r.Sample(len(candidates), model.DeadTiles) {
			inj.tileAlive[candidates[idx]] = false
		}
	} else if model.PTileCrash > 0 {
		for i := 0; i < topo.Tiles(); i++ {
			if !protected[packet.TileID(i)] && r.Bool(model.PTileCrash) {
				inj.tileAlive[i] = false
			}
		}
	}

	// Link crashes. The link list is only materialised by the branch that
	// samples from it: a model without link crashes (every paper figure
	// but the link sweeps, every mega-mesh run) must not pay O(links) for
	// it. Building the list draws nothing, so the streams do not move.
	if model.DeadLinks > 0 {
		links := allLinks(topo)
		if model.DeadLinks > len(links) {
			return nil, fmt.Errorf("fault: DeadLinks=%d exceeds %d links", model.DeadLinks, len(links))
		}
		for _, idx := range r.Sample(len(links), model.DeadLinks) {
			inj.linkDead[linkKey(links[idx][0], links[idx][1])] = true
		}
	} else if model.PLinkCrash > 0 {
		for _, l := range allLinks(topo) {
			if r.Bool(model.PLinkCrash) {
				inj.linkDead[linkKey(l[0], l[1])] = true
			}
		}
	}
	return inj, nil
}

func allLinks(topo topology.Topology) [][2]packet.TileID {
	var links [][2]packet.TileID
	for a := 0; a < topo.Tiles(); a++ {
		for _, b := range topo.Neighbors(packet.TileID(a)) {
			if packet.TileID(a) < b {
				links = append(links, [2]packet.TileID{packet.TileID(a), b})
			}
		}
	}
	return links
}

// Model returns the injector's configuration.
func (inj *Injector) Model() Model { return inj.model }

// TileAlive reports whether tile t escaped crash injection.
func (inj *Injector) TileAlive(t packet.TileID) bool {
	if uint(t) >= uint(len(inj.tileAlive)) {
		return false
	}
	return inj.tileAlive[t]
}

// LinkAlive reports whether the link a-b escaped crash injection. A link
// with a dead endpoint is also dead.
func (inj *Injector) LinkAlive(a, b packet.TileID) bool {
	return inj.TileAlive(a) && inj.TileAlive(b) && !inj.linkDead[linkKey(a, b)]
}

// DeadTileCount returns the number of crashed tiles.
func (inj *Injector) DeadTileCount() int {
	n := 0
	for _, alive := range inj.tileAlive {
		if !alive {
			n++
		}
	}
	return n
}

// UpsetThreshold exposes the fixed-point PUpset threshold so per-round
// engines can cache it and draw with rng.Stream.BoolT inline.
func (inj *Injector) UpsetThreshold() rng.Threshold { return inj.upsetT }

// OverflowThreshold is the POverflow counterpart of UpsetThreshold.
func (inj *Injector) OverflowThreshold() rng.Threshold { return inj.overflowT }

// SyncSlip samples the extra delivery delay, in whole rounds, caused by
// mixed-clock skew: ⌊|N(0, σ_rel)|⌋. With σ = 0 it is always 0; at σ = 100%
// of T_R the mean slip is ≈0.6 rounds — latency jitter grows but delivery
// still happens, matching the Fig. 4-10/4-11 observations.
func (inj *Injector) SyncSlip(r *rng.Stream) int {
	if inj.model.SigmaSync <= 0 {
		return 0
	}
	v := r.Normal(0, inj.model.SigmaSync)
	if v < 0 {
		v = -v
	}
	return int(v)
}

// CorruptFrame applies the configured error model to a wire frame in
// place. Only used on the literal-upsets path.
func (inj *Injector) CorruptFrame(frame []byte, r *rng.Stream) {
	packet.Corrupt(inj.model.ErrorModel, frame, inj.model.PUpset, r)
}

// AliveFuncs adapts the injector to the topology analysis predicates.
func (inj *Injector) AliveFuncs() (topology.AliveFunc, topology.LinkAliveFunc) {
	return inj.TileAlive, inj.LinkAlive
}
