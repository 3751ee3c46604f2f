// Benchmarks: one per thesis figure (the regeneration harness measured
// end-to-end, with the headline domain metric attached via ReportMetric),
// plus ablation benches for the design choices DESIGN.md calls out.
//
// Run with: go test -bench=. -benchmem
package stochnoc_test

import (
	"testing"

	stochnoc "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/topology"
)

// bmc is the per-iteration Monte Carlo config used by the figure
// benchmarks: sequential (the benchmark loop is the measurement; worker
// startup would only add noise) with the iteration index as master seed.
func bmc(replicas int, seed uint64) sim.Config {
	return sim.Config{Replicas: replicas, Workers: 1, Seed: seed}
}

func BenchmarkFig31RumorSpreading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig31(bmc(10, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if rows[20].SimMean < 999 {
			b.Fatal("spread incomplete")
		}
	}
}

func BenchmarkFig33ProducerConsumer(b *testing.B) {
	// A single p=0.5 unicast occasionally dies within its TTL (that IS
	// the protocol's w.h.p. guarantee); skip those seeds rather than
	// failing the harness measurement.
	var rounds float64
	delivered := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig33(uint64(i))
		if err != nil {
			continue
		}
		delivered++
		rounds += float64(res.DeliveryRound)
	}
	if delivered > 0 {
		b.ReportMetric(rounds/float64(delivered), "delivery-rounds")
	}
}

func BenchmarkFig44MasterSlave(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig44(experiments.MasterSlave, []int{0, 2}, bmc(3, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig44FFT2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig44(experiments.FFT2, []int{0, 2}, bmc(3, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig45Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig45([]int{0, 4}, []float64{0, 0.5, 0.9}, bmc(2, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig46BusComparison(b *testing.B) {
	// The tight TTL-8 configuration occasionally misses delivery on an
	// unlucky seed; skip those iterations (see BenchmarkFig33's note).
	var latRatio float64
	completed := 0
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig46(bmc(3, uint64(i)))
		if err != nil {
			continue
		}
		completed++
		latRatio += res.LatencyRatio
	}
	if completed > 0 {
		b.ReportMetric(latRatio/float64(completed), "bus/noc-latency-ratio")
	}
}

func BenchmarkFig48MP3Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig48([]float64{1, 0.5}, []float64{0, 0.4}, bmc(1, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig410Overflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig410([]float64{0, 0.5}, nil, bmc(1, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig410Sync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig410(nil, []float64{0, 1.5}, bmc(1, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig53Diversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig53(bmc(1, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Engine micro/ablation benches ----

// broadcastRun floods (or gossips) one broadcast over a 5x5 grid with the
// given config knobs and returns the transmissions.
func broadcastRun(b *testing.B, cfg core.Config) int {
	b.Helper()
	grid := topology.NewGrid(5, 5)
	cfg.Topo = grid
	if cfg.TTL == 0 {
		cfg.TTL = core.DefaultTTL
	}
	cfg.MaxRounds = 100
	net, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	net.Inject(0, stochnoc.Broadcast, 0, make([]byte, 16))
	for r := 0; r < 30 && !net.Quiescent(); r++ {
		net.Step()
	}
	return net.Counters().Energy.Transmissions
}

// Ablation: literal bit-flip upsets (encode + corrupt + CRC per hop) vs
// the analytic drop model — the cost of hardware-faithful simulation.
func BenchmarkAblationUpsetsAnalytic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		broadcastRun(b, core.Config{P: 0.75, Seed: uint64(i), Fault: fault.Model{PUpset: 0.3}})
	}
}

func BenchmarkAblationUpsetsLiteral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		broadcastRun(b, core.Config{P: 0.75, Seed: uint64(i),
			Fault: fault.Model{PUpset: 0.3, LiteralUpsets: true}})
	}
}

// Ablation: TTL sweep — bandwidth/energy vs message lifetime (§3.2.2's
// tuning knob).
func BenchmarkAblationTTL6(b *testing.B)  { benchTTL(b, 6) }
func BenchmarkAblationTTL12(b *testing.B) { benchTTL(b, 12) }
func BenchmarkAblationTTL24(b *testing.B) { benchTTL(b, 24) }

func benchTTL(b *testing.B, ttl uint8) {
	var tx float64
	for i := 0; i < b.N; i++ {
		tx += float64(broadcastRun(b, core.Config{P: 0.5, TTL: ttl, Seed: uint64(i)}))
	}
	b.ReportMetric(tx/float64(b.N), "transmissions")
}

// Ablation: idealized spread termination on delivery vs pure TTL decay.
func BenchmarkAblationStopSpreadOff(b *testing.B) { benchStopSpread(b, false) }
func BenchmarkAblationStopSpreadOn(b *testing.B)  { benchStopSpread(b, true) }

func benchStopSpread(b *testing.B, stop bool) {
	var tx float64
	for i := 0; i < b.N; i++ {
		grid := topology.NewGrid(5, 5)
		net, err := core.New(core.Config{
			Topo: grid, P: 0.75, TTL: 20, MaxRounds: 80,
			Seed: uint64(i), StopSpreadOnDelivery: stop,
		})
		if err != nil {
			b.Fatal(err)
		}
		net.Inject(0, grid.ID(4, 4), 0, make([]byte, 16))
		for r := 0; r < 60 && !net.Quiescent(); r++ {
			net.Step()
		}
		tx += float64(net.Counters().Energy.Transmissions)
	}
	b.ReportMetric(tx/float64(b.N), "transmissions")
}

// ---- Monte Carlo runner (internal/sim) ----

// benchRunner pushes the same 8-replica broadcast batch through the sim
// runner at a fixed worker count, so Sequential vs Parallel isolates the
// pool's dispatch overhead/speed-up on identical work. (On a single-core
// host the parallel variant measures pure overhead.)
func benchRunner(b *testing.B, workers int) {
	b.Helper()
	grid := topology.NewGrid(5, 5)
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Replicas: 8, Workers: workers, Seed: uint64(i)}
		_, err := sim.Run(cfg, func(replica int, seed uint64) (int, error) {
			net, err := core.New(core.Config{
				Topo: grid, P: 0.75, TTL: core.DefaultTTL, MaxRounds: 100, Seed: seed,
			})
			if err != nil {
				return 0, err
			}
			net.Inject(0, stochnoc.Broadcast, 0, make([]byte, 16))
			for r := 0; r < 30 && !net.Quiescent(); r++ {
				net.Step()
			}
			return net.Counters().Energy.Transmissions, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunnerSequential(b *testing.B) { benchRunner(b, 1) }
func BenchmarkRunnerParallel(b *testing.B)   { benchRunner(b, 4) }

// Engine cost of one point-to-point delivery on a 4x4 grid. Each
// iteration needs a fresh network (a run is consumed on completion), so
// construction happens with the timer stopped: the benchmark measures
// stepping only, keeping it sensitive to the allocation profile of the
// hot path.
func BenchmarkEngineSync(b *testing.B) {
	grid := stochnoc.NewGrid(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := stochnoc.New(stochnoc.Config{
			Topo: grid, P: 0.75, TTL: 12, MaxRounds: 200, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		cons := stochnoc.NewConsumer(1)
		net.Attach(0, &stochnoc.Producer{Dst: 15, Count: 1})
		net.Attach(15, cons)
		b.StartTimer()
		if !net.Run().Completed {
			b.Fatal("sync engine failed to deliver")
		}
	}
}

// ---- Extension benches ----

// The robustness study (gossip vs directed vs XY under crashes).
func BenchmarkExtRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RobustnessStudy([]int{0, 2}, bmc(5, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// The reliable-transport layer under heavy loss.

type benchRelSender struct {
	ep    *reliable.Endpoint
	count int
	sent  int
}

func (s *benchRelSender) Init(*core.Ctx) {}
func (s *benchRelSender) Round(ctx *core.Ctx) {
	if s.sent < s.count {
		s.ep.Send(ctx, 15, 7, []byte{byte(s.sent)})
		s.sent++
	}
	s.ep.Tick(ctx)
}
func (s *benchRelSender) Receive(ctx *core.Ctx, p *packet.Packet) { _, _ = s.ep.HandlePacket(ctx, p) }
func (s *benchRelSender) Done() bool                              { return s.sent == s.count && s.ep.Outstanding() == 0 }

type benchRelReceiver struct{ ep *reliable.Endpoint }

func (r *benchRelReceiver) Init(*core.Ctx)      {}
func (r *benchRelReceiver) Round(ctx *core.Ctx) { r.ep.Tick(ctx) }
func (r *benchRelReceiver) Receive(ctx *core.Ctx, p *packet.Packet) {
	_, _ = r.ep.HandlePacket(ctx, p)
}

func BenchmarkExtReliableTransport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid := topology.NewGrid(4, 4)
		net, err := core.New(core.Config{
			Topo: grid, P: 0.75, TTL: 16, MaxRounds: 3000, Seed: uint64(i),
			Fault: fault.Model{POverflow: 0.5},
		})
		if err != nil {
			b.Fatal(err)
		}
		net.Attach(0, &benchRelSender{ep: reliable.NewEndpoint(), count: 3})
		net.Attach(15, &benchRelReceiver{ep: reliable.NewEndpoint()})
		if !net.Run().Completed {
			b.Fatal("reliable delivery incomplete")
		}
	}
}
