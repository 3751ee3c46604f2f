// Package pisum implements the thesis' Master–Slave case study (§4.1.1):
// estimating π on a NoC by midpoint integration of ∫₀¹ 4/(1+x²) dx
// (Eq. 4). A master IP partitions the quadrature range over N slaves,
// sends each its summation limits through the stochastic network, and
// assembles the partial sums as they gossip back. Slaves may be
// replicated; replicas produce identical results and the master uses
// whichever copy arrives first, which is the thesis' computation-level
// fault-tolerance mechanism.
package pisum

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/packet"

	"repro/internal/apps/codec"
)

// Message kinds.
const (
	KindAssign packet.Kind = 1 // master -> slave: summation limits
	KindResult packet.Kind = 2 // slave -> master: partial sum
)

// PartialSum evaluates the Eq. 4 midpoint-rule sum over i ∈ [lo, hi):
//
//	Σ 4 / (1 + ((i − 1/2)/n)²) · (1/n)
func PartialSum(lo, hi, n int) float64 {
	sum := 0.0
	nf := float64(n)
	for i := lo; i < hi; i++ {
		x := (float64(i) - 0.5) / nf
		sum += 4 / (1 + x*x) / nf
	}
	return sum
}

// Master is the IP collecting partial sums.
type Master struct {
	slaveTiles [][]packet.TileID // per slave index, its replica tiles
	intervals  int
	results    map[int]float64
	assigned   bool
	// DoneRound is the round in which the last partial sum arrived.
	DoneRound int
}

// NewMaster returns a master coordinating len(slaveTiles) slaves, with
// the quadrature split into intervals points total.
func NewMaster(slaveTiles [][]packet.TileID, intervals int) *Master {
	return &Master{
		slaveTiles: slaveTiles,
		intervals:  intervals,
		results:    map[int]float64{},
	}
}

// Init implements core.Process.
func (m *Master) Init(*core.Ctx) {}

// Round implements core.Process: on the first round, the master starts
// its slaves by sending each replica its summation limits.
func (m *Master) Round(ctx *core.Ctx) {
	if m.assigned {
		return
	}
	m.assigned = true
	n := len(m.slaveTiles)
	for k, tiles := range m.slaveTiles {
		lo := 1 + k*m.intervals/n
		hi := 1 + (k+1)*m.intervals/n
		payload := codec.NewWriter(14).
			U16(uint16(k)).
			U32(uint32(lo)).U32(uint32(hi)).
			U32(uint32(m.intervals)).
			Bytes()
		for _, tile := range tiles {
			ctx.Send(tile, KindAssign, payload)
		}
	}
}

// Receive implements core.Receiver: collect partial sums at the instant
// of delivery.
func (m *Master) Receive(ctx *core.Ctx, p *packet.Packet) {
	if p.Kind != KindResult {
		return
	}
	r := codec.NewReader(p.Payload)
	k := int(r.U16())
	sum := r.F64()
	if r.Err() != nil || k >= len(m.slaveTiles) {
		return // malformed result: ignore (gossip will bring another copy)
	}
	if _, dup := m.results[k]; dup {
		return // a replica's identical copy: §4.1.1, take the first
	}
	m.results[k] = sum
	if len(m.results) == len(m.slaveTiles) {
		m.DoneRound = ctx.Round()
	}
}

// Done implements core.Completer.
func (m *Master) Done() bool { return len(m.results) == len(m.slaveTiles) }

// Pi returns the assembled estimate. Calling it before Done is an error.
func (m *Master) Pi() (float64, error) {
	if !m.Done() {
		return 0, fmt.Errorf("pisum: only %d/%d partial sums collected",
			len(m.results), len(m.slaveTiles))
	}
	total := 0.0
	for _, v := range m.results {
		total += v
	}
	return total, nil
}

// Slave computes a partial sum on demand.
type Slave struct {
	master packet.TileID
}

// NewSlave returns a slave that reports to the master tile.
func NewSlave(master packet.TileID) *Slave { return &Slave{master: master} }

// Init implements core.Process.
func (s *Slave) Init(*core.Ctx) {}

// Round implements core.Process (the slave is purely reactive).
func (s *Slave) Round(*core.Ctx) {}

// Receive implements core.Receiver: compute and reply.
func (s *Slave) Receive(ctx *core.Ctx, p *packet.Packet) {
	if p.Kind != KindAssign {
		return
	}
	r := codec.NewReader(p.Payload)
	k := r.U16()
	lo, hi, n := int(r.U32()), int(r.U32()), int(r.U32())
	if r.Err() != nil || n <= 0 || lo > hi {
		return
	}
	sum := PartialSum(lo, hi, n)
	reply := codec.NewWriter(10).U16(k).F64(sum).Bytes()
	ctx.Send(s.master, KindResult, reply)
}

// App wires a complete Master–Slave instance onto a network.
type App struct {
	Master     *Master
	MasterTile packet.TileID
	SlaveTiles [][]packet.TileID
}

// Setup attaches a master at masterTile and the given slave replicas to
// net. intervals is the total quadrature resolution.
func Setup(net *core.Network, masterTile packet.TileID, slaveTiles [][]packet.TileID, intervals int) (*App, error) {
	if len(slaveTiles) == 0 {
		return nil, fmt.Errorf("pisum: no slaves")
	}
	if intervals < len(slaveTiles) {
		return nil, fmt.Errorf("pisum: %d intervals for %d slaves", intervals, len(slaveTiles))
	}
	m := NewMaster(slaveTiles, intervals)
	net.Attach(masterTile, m)
	for _, tiles := range slaveTiles {
		for _, tile := range tiles {
			if tile == masterTile {
				return nil, fmt.Errorf("pisum: slave replica collides with master tile %d", masterTile)
			}
			net.Attach(tile, NewSlave(masterTile))
		}
	}
	return &App{Master: m, MasterTile: masterTile, SlaveTiles: slaveTiles}, nil
}

// ReferencePi returns the same quadrature computed serially, for
// validating the distributed result bit-for-bit... up to summation order:
// the master adds partial sums in map order, so equality holds to 1e-12.
func ReferencePi(intervals int) float64 {
	return PartialSum(1, intervals+1, intervals)
}
