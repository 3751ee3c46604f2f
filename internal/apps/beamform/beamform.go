// Package beamform implements the acoustic delay-and-sum beamforming
// application the thesis uses to compare on-chip diversity architectures
// (Chapter 5, after Zhang et al. [42]): an array of sensor IPs sample a
// plane wave with per-sensor propagation delays, steer their blocks into
// alignment and stream them to an aggregator IP, whose beam is their sum.
// Coherent summing reinforces the source by N while incoherent noise
// grows only by √N — the array gain the package tests verify.
//
// For the NoC experiments the interesting part is the traffic: an
// all-to-one streaming pattern with block-sized messages, spread across
// clusters in the hierarchical architectures.
package beamform

import (
	"errors"
	"fmt"

	"repro/internal/audio/signal"
	"repro/internal/core"
	"repro/internal/packet"

	"repro/internal/apps/codec"
)

// KindBlock tags sensor sample blocks.
const KindBlock packet.Kind = 40

// Sensor is one microphone IP: it samples the source with its own
// propagation delay and streams blocks to the aggregator.
type Sensor struct {
	Index      int
	DelaySamp  int
	Aggregator packet.TileID
	Src        *signal.Synth
	// SelfNoise is the amplitude of the sensor's own (independent)
	// front-end noise; it sums incoherently at the aggregator.
	SelfNoise float64
	BlockLen  int
	Blocks    int
	// Pace is the number of rounds between consecutive blocks (a real
	// array samples in real time); 0 or 1 streams one block per round.
	Pace int
	sent int
}

// Init implements core.Process.
func (s *Sensor) Init(*core.Ctx) {}

// Round implements core.Process: one block per round.
func (s *Sensor) Round(ctx *core.Ctx) {
	if s.sent >= s.Blocks {
		return
	}
	if s.Pace > 1 && ctx.Round() < 1+s.sent*s.Pace {
		return // hold until the block's real-time slot
	}
	// The wavefront reaches this sensor DelaySamp samples late
	// (r_i(t) = src(t − d_i)); the sensor applies the steering advance
	// before transmission by reading its own timeline at t + d_i, so the
	// wave delay cancels exactly: aligned_i(bB + j) = src(bB + j). Only
	// the sensor's private front-end noise remains at shifted positions,
	// which is what makes it sum incoherently downstream.
	samples, err := s.Src.Samples(s.sent*s.BlockLen, s.BlockLen)
	if err != nil {
		return
	}
	if s.SelfNoise > 0 {
		noise := &signal.Synth{
			SampleRate: s.Src.SampleRate,
			NoiseAmp:   s.SelfNoise,
			Seed:       0xbeaf0 + uint64(s.Index),
		}
		nv, err := noise.Samples(s.sent*s.BlockLen+s.DelaySamp, s.BlockLen)
		if err == nil {
			for i := range samples {
				samples[i] += nv[i]
			}
		}
	}
	w := codec.NewWriter(8 + 8*s.BlockLen).U16(uint16(s.Index)).U32(uint32(s.sent))
	for _, v := range samples {
		w.F64(v)
	}
	ctx.Send(s.Aggregator, KindBlock, w.Bytes())
	s.sent++
}

// Aggregator collects the sensor blocks the beam is summed from, and
// completes when every block has every sensor's contribution.
type Aggregator struct {
	Sensors  int
	BlockLen int
	Blocks   int
	Delays   []int // steering delays, one per sensor

	// got[block][sensor] marks arrivals.
	got map[uint32]map[int]bool
	// DoneRound is the round the last block completed in.
	DoneRound int
}

// NewAggregator returns an aggregator expecting `blocks` blocks from
// `sensors` sensors with the given steering delays.
func NewAggregator(sensors, blockLen, blocks int, delays []int) (*Aggregator, error) {
	if sensors <= 0 || blockLen <= 0 || blocks <= 0 {
		return nil, errors.New("beamform: non-positive geometry")
	}
	if len(delays) != sensors {
		return nil, fmt.Errorf("beamform: %d delays for %d sensors", len(delays), sensors)
	}
	return &Aggregator{
		Sensors: sensors, BlockLen: blockLen, Blocks: blocks, Delays: delays,
		got: map[uint32]map[int]bool{},
	}, nil
}

// Init implements core.Process.
func (a *Aggregator) Init(*core.Ctx) {}

// Round implements core.Process (reactive only).
func (a *Aggregator) Round(*core.Ctx) {}

// Receive implements core.Receiver: it marks the block's sensor as
// arrived. The samples need no alignment here: a plane wave from the
// steered direction arrives with exactly Delays[i] lag, which the
// sensor's block-relative resampling undoes. A block counts only with
// all its samples aboard (a 6-byte header, then BlockLen float64s).
func (a *Aggregator) Receive(ctx *core.Ctx, p *packet.Packet) {
	if p.Kind != KindBlock || len(p.Payload) < 6+8*a.BlockLen {
		return
	}
	r := codec.NewReader(p.Payload)
	sensor := int(r.U16())
	block := r.U32()
	if sensor >= a.Sensors || int(block) >= a.Blocks {
		return
	}
	if a.got[block] == nil {
		a.got[block] = map[int]bool{}
	}
	if a.got[block][sensor] {
		return
	}
	a.got[block][sensor] = true
	if a.Completed() {
		a.DoneRound = ctx.Round()
	}
}

// Completed reports whether every block has every sensor's contribution.
func (a *Aggregator) Completed() bool {
	if len(a.got) < a.Blocks {
		return false
	}
	for _, sensors := range a.got {
		if len(sensors) < a.Sensors {
			return false
		}
	}
	return true
}

// Done implements core.Completer.
func (a *Aggregator) Done() bool { return a.Completed() }

// App wires an array of sensors and one aggregator.
type App struct {
	Agg     *Aggregator
	AggTile packet.TileID
}

// Setup places sensors on sensorTiles (sensor i delayed by delays[i]
// samples) and the aggregator on aggTile. The wave source is src.
func Setup(net *core.Network, aggTile packet.TileID, sensorTiles []packet.TileID,
	delays []int, src *signal.Synth, selfNoise float64, blockLen, blocks, pace int) (*App, error) {
	agg, err := NewAggregator(len(sensorTiles), blockLen, blocks, delays)
	if err != nil {
		return nil, err
	}
	net.Attach(aggTile, agg)
	for i, tile := range sensorTiles {
		if tile == aggTile {
			return nil, fmt.Errorf("beamform: sensor %d collides with aggregator", i)
		}
		net.Attach(tile, &Sensor{
			Index: i, DelaySamp: delays[i], Aggregator: aggTile,
			Src: src, SelfNoise: selfNoise, BlockLen: blockLen, Blocks: blocks,
			Pace: pace,
		})
	}
	return &App{Agg: agg, AggTile: aggTile}, nil
}
