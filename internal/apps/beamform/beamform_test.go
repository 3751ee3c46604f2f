package beamform

import (
	"math"
	"testing"

	"repro/internal/apps/codec"
	"repro/internal/audio/signal"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/topology"
)

func wave() *signal.Synth {
	return &signal.Synth{
		SampleRate: 16000,
		Tones:      []signal.Tone{{Freq: 500, Amp: 0.5}},
	}
}

// beam wraps the aggregator with the beam the tests check: it sums the
// samples of every (block, sensor) contribution the aggregator accepts,
// once.
type beam struct {
	*Aggregator
	sums map[uint32][]float64
}

// Receive implements core.Receiver.
func (b *beam) Receive(ctx *core.Ctx, p *packet.Packet) {
	r := codec.NewReader(p.Payload)
	sensor, block := int(r.U16()), r.U32()
	fresh := !b.got[block][sensor]
	b.Aggregator.Receive(ctx, p)
	if !fresh || !b.got[block][sensor] {
		return // a duplicate, or not a block the aggregator took
	}
	if b.sums[block] == nil {
		b.sums[block] = make([]float64, b.BlockLen)
	}
	for i := range b.sums[block] {
		b.sums[block][i] += r.F64()
	}
}

// newBeam returns a beam over agg.
func newBeam(agg *Aggregator) *beam {
	return &beam{Aggregator: agg, sums: map[uint32][]float64{}}
}

func setup(t *testing.T, cfg core.Config, selfNoise float64, blocks int) (*core.Network, *beam) {
	t.Helper()
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid := cfg.Topo.(*topology.Grid)
	agg := grid.ID(3, 3)
	sensors := []packet.TileID{
		grid.ID(0, 0), grid.ID(1, 0), grid.ID(2, 0), grid.ID(3, 0),
		grid.ID(0, 1), grid.ID(1, 1), grid.ID(2, 1), grid.ID(3, 1),
	}
	delays := []int{0, 3, 6, 9, 12, 15, 18, 21} // linear array, plane wave
	app, err := Setup(net, agg, sensors, delays, wave(), selfNoise, 64, blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBeam(app.Agg)
	net.Attach(agg, bm)
	return net, bm
}

// of returns the beamformed output of a completed block blk: the aligned
// sum of the sensors' samples, scaled by 1/N.
func (b *beam) of(blk int) []float64 {
	out := make([]float64, b.BlockLen)
	for i, v := range b.sums[uint32(blk)] {
		out[i] = v / float64(b.Sensors)
	}
	return out
}

func TestBeamformCompletes(t *testing.T) {
	net, bm := setup(t, core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.75, TTL: core.DefaultTTL,
		MaxRounds: 300, Seed: 1,
	}, 0, 4)
	res := net.Run()
	if !res.Completed {
		t.Fatalf("beamforming incomplete: %+v", res)
	}
	if bm.DoneRound == 0 {
		t.Fatal("DoneRound not recorded")
	}
}

func TestCoherentSumMatchesSource(t *testing.T) {
	// Without self-noise, the aligned average must equal the source
	// exactly (for samples where every sensor had wave data).
	net, bm := setup(t, core.Config{
		Topo: topology.NewGrid(4, 4), P: 1, TTL: core.DefaultTTL,
		MaxRounds: 200, Seed: 2,
	}, 0, 3)
	if !net.Run().Completed {
		t.Fatal("incomplete")
	}
	// Block 1 (samples 64..128): all delays (≤21) have real data by then.
	beam := bm.of(1)
	ref, err := wave().Samples(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range beam {
		if math.Abs(beam[i]-ref[i]) > 1e-12 {
			t.Fatalf("beam sample %d = %v, want %v", i, beam[i], ref[i])
		}
	}
}

func TestArrayGainSuppressesNoise(t *testing.T) {
	// With independent sensor noise, the beamformed output is closer to
	// the clean source than any single noisy sensor: SNR improves by
	// ≈10·log10(N) = 9 dB for 8 sensors.
	const noiseAmp = 0.2
	net, bm := setup(t, core.Config{
		Topo: topology.NewGrid(4, 4), P: 1, TTL: core.DefaultTTL,
		MaxRounds: 200, Seed: 3,
	}, noiseAmp, 3)
	if !net.Run().Completed {
		t.Fatal("incomplete")
	}
	beam := bm.of(1)
	ref, err := wave().Samples(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	// A single sensor's SNR: wave + one noise stream.
	noisy := make([]float64, 64)
	noise := &signal.Synth{SampleRate: 16000, NoiseAmp: noiseAmp, Seed: 0xbeaf0}
	nv, err := noise.Samples(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range noisy {
		noisy[i] = ref[i] + nv[i]
	}
	single := signal.SNRdB(ref, noisy)
	array := signal.SNRdB(ref, beam)
	if array < single+5 {
		t.Fatalf("array gain too small: single %.1f dB, array %.1f dB", single, array)
	}
}

// TestBeamIncompleteBlockErrors checks that a block lacking any
// sensor's contribution keeps the aggregator incomplete, so no beam is
// read from it.
func TestBeamIncompleteBlockErrors(t *testing.T) {
	agg, err := NewAggregator(4, 16, 2, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed() {
		t.Fatal("empty aggregator complete")
	}
	deliver := func(sensor, block int) {
		w := codec.NewWriter(0).U16(uint16(sensor)).U32(uint32(block))
		for range agg.BlockLen {
			w.F64(1)
		}
		// Receive reads the round from ctx only on completion.
		agg.Receive(nil, &packet.Packet{Kind: KindBlock, Payload: w.Bytes()})
	}
	for s := range 4 {
		deliver(s, 0)
	}
	if agg.Completed() {
		t.Fatal("complete with block 1 missing")
	}
	for s := range 3 {
		deliver(s, 1)
	}
	deliver(2, 1) // a duplicate is not the missing sensor
	if agg.Completed() {
		t.Fatal("complete with sensor 3 of block 1 missing")
	}
}

func TestAggregatorValidation(t *testing.T) {
	if _, err := NewAggregator(0, 16, 1, nil); err == nil {
		t.Error("zero sensors accepted")
	}
	if _, err := NewAggregator(2, 16, 1, []int{0}); err == nil {
		t.Error("delay count mismatch accepted")
	}
}

func TestSetupRejectsCollision(t *testing.T) {
	net, err := core.New(core.Config{Topo: topology.NewGrid(2, 2), P: 0.5, TTL: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Setup(net, 0, []packet.TileID{0}, []int{0}, wave(), 0, 16, 1, 0); err == nil {
		t.Fatal("sensor on aggregator tile accepted")
	}
}

func TestDuplicateBlocksIgnored(t *testing.T) {
	agg, err := NewAggregator(2, 4, 1, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	bm := newBeam(agg)
	// Hand-craft two deliveries of the same (sensor, block).
	mk := func() *packet.Packet {
		w := make([]byte, 0)
		w = append(w, 0, 0) // sensor 0
		w = append(w, 0, 0, 0, 0)
		for i := 0; i < 4; i++ {
			w = append(w, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0) // 1.0
		}
		return &packet.Packet{Kind: KindBlock, Payload: w}
	}
	ctx := &core.Ctx{}
	bm.Receive(ctx, mk())
	bm.Receive(ctx, mk())
	if bm.sums[0][0] != 1.0 {
		t.Fatalf("duplicate block double-counted: %v", bm.sums[0][0])
	}
	if agg.Completed() || len(agg.got[0]) != 1 {
		t.Fatalf("a duplicate of sensor 0 counted as sensor 1: %v", agg.got[0])
	}
}
