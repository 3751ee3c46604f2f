package metrics_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/topology"
)

// recorderNet mirrors internal/core's stepNet microbench fixture (8×8
// broadcast steady state, TTL 255) with a Recorder installed, so
// BenchmarkStepGrid8x8Recorder reads directly against the engine's
// BenchmarkStepGrid8x8 baseline: the delta is the observability tax.
func recorderNet(tb testing.TB) *core.Network {
	tb.Helper()
	cfg := core.Config{
		Topo: topology.NewGrid(8, 8), P: 0.5, TTL: 255, MaxRounds: 100000, Seed: 1,
	}
	rec := metrics.NewRecorder(metrics.Config{Rounds: 100000, Tech: energy.NoCLink025})
	rec.Install(&cfg)
	n, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	id, _ := n.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	rec.Watch(id)
	for i := 0; i < 60; i++ {
		n.Step()
	}
	return n
}

// BenchmarkStepGrid8x8Recorder is the instrumented twin of the engine
// hot-loop microbench: one steady-state Step with the per-round recorder
// booking the engine's counts and flushing every round. The acceptance
// bar is 0 allocs/op and ≤5% latency over the bare engine (EXPERIMENTS.md
// keeps the before/after table).
func BenchmarkStepGrid8x8Recorder(b *testing.B) {
	n := recorderNet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.Round() >= 220 {
			// The broadcast dies when its TTL runs out; restart the
			// steady state outside the timer.
			b.StopTimer()
			n = recorderNet(b)
			b.StartTimer()
		}
		n.Step()
	}
}
