package metrics_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/topology"
)

// faultyBroadcast runs a faulty 8×8 broadcast to quiescence with a
// Recorder installed, plus an independently chained OnEvent hook that
// tallies every event kind on its own, and returns all three ledgers.
func faultyBroadcast(t *testing.T, seed uint64) (*metrics.Recorder, core.Counters, map[core.EventKind]int) {
	t.Helper()
	g := topology.NewGrid(8, 8)
	center := g.ID(4, 4)
	rec := metrics.NewRecorder(metrics.Config{Rounds: 72, Tech: energy.NoCLink025})
	independent := map[core.EventKind]int{}
	cfg := core.Config{
		Topo: g, P: 0.5, TTL: 32, MaxRounds: 72, Seed: seed,
		Fault:   fault.Model{PUpset: 0.1, POverflow: 0.05, Protect: []packet.TileID{center}},
		OnEvent: func(e core.Event) { independent[e.Kind]++ },
	}
	rec.Install(&cfg)
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := net.Inject(center, packet.Broadcast, 0, make([]byte, 16))
	rec.Watch(id)
	net.Drain(72)
	return rec, net.Counters(), independent
}

// TestMetricsRecorderTotalsMatchCounters pins the reconciliation
// invariant: on a faulty 8×8 broadcast the recorder's cumulative event
// totals equal the engine's own core.Counters tallies exactly, and each
// total equals the sum of its per-round series.
func TestMetricsRecorderTotalsMatchCounters(t *testing.T) {
	rec, cnt, independent := faultyBroadcast(t, 7)

	if got, want := rec.Total(metrics.Transmissions), int64(cnt.Energy.Transmissions); got != want {
		t.Errorf("transmissions: recorder %d, core.Counters %d", got, want)
	}
	if got, want := rec.Total(metrics.CRCRejects), int64(cnt.UpsetsDetected); got != want {
		t.Errorf("crc_rejects: recorder %d, core.Counters.UpsetsDetected %d", got, want)
	}
	if got, want := rec.Total(metrics.OverflowDrops), int64(cnt.OverflowDrops); got != want {
		t.Errorf("overflow_drops: recorder %d, core.Counters %d", got, want)
	}
	if got, want := rec.Total(metrics.Deliveries), int64(cnt.Deliveries); got != want {
		t.Errorf("deliveries: recorder %d, core.Counters %d", got, want)
	}
	// Created and TTLExpiries have no core.Counters field; reconcile them
	// (and every other series) against the independently chained hook.
	for id, kind := range map[metrics.IntID]core.EventKind{
		metrics.Created:       core.EvCreated,
		metrics.Transmissions: core.EvTransmit,
		metrics.CRCRejects:    core.EvUpset,
		metrics.OverflowDrops: core.EvOverflow,
		metrics.Deliveries:    core.EvDeliver,
		metrics.TTLExpiries:   core.EvExpire,
	} {
		if got, want := rec.Total(id), int64(independent[kind]); got != want {
			t.Errorf("int series %d: recorder %d, independent hook %d",
				id, got, want)
		}
	}
	if rec.Total(metrics.Transmissions) == 0 || rec.Total(metrics.CRCRejects) == 0 ||
		rec.Total(metrics.OverflowDrops) == 0 || rec.Total(metrics.TTLExpiries) == 0 {
		t.Fatalf("degenerate run: some series never fired (totals %v %v %v %v)",
			rec.Total(metrics.Transmissions), rec.Total(metrics.CRCRejects),
			rec.Total(metrics.OverflowDrops), rec.Total(metrics.TTLExpiries))
	}

	// Per-round sums reconcile with the totals, and the per-round energy
	// series sums to the engine's Eq. 3 total.
	ts := rec.Series()
	for id := metrics.Created; id <= metrics.TTLExpiries; id++ {
		var sum int64
		for _, v := range ts.Int(id) {
			sum += v
		}
		if sum != rec.Total(id) {
			t.Errorf("int series %d: per-round sum %d != total %d", id, sum, rec.Total(id))
		}
	}
	var joules float64
	for _, v := range ts.Float(metrics.EnergyJ) {
		joules += v
	}
	want := cnt.Energy.EnergyJ(energy.NoCLink025)
	if math.Abs(joules-want) > 1e-12*want {
		t.Errorf("energy_j: per-round sum %g J != core total %g J", joules, want)
	}
}

// TestMetricsInstallChains verifies Install composes with hooks the
// application already set, rather than replacing them.
func TestMetricsInstallChains(t *testing.T) {
	g := topology.NewGrid(2, 2)
	appEvents, appRounds := 0, 0
	cfg := core.Config{
		Topo: g, P: 1, TTL: 4, MaxRounds: 16, Seed: 1,
		OnEvent:    func(core.Event) { appEvents++ },
		OnRoundEnd: func(int, *core.Network) { appRounds++ },
	}
	rec := metrics.NewRecorder(metrics.Config{Rounds: 16})
	rec.Install(&cfg)
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(0, packet.Broadcast, 0, nil)
	for i := 0; i < 3; i++ {
		net.Step()
	}
	if appEvents == 0 {
		t.Error("application OnEvent hook lost after Install")
	}
	if appRounds != 3 {
		t.Errorf("application OnRoundEnd hook called %d times, want 3", appRounds)
	}
	if rec.Total(metrics.Transmissions) == 0 {
		t.Error("recorder counted no transmissions behind the chained hook")
	}
	if got := rec.Series().Rounds; got != 3 {
		t.Errorf("recorder highest round %d, want 3", got)
	}
}

// flatSeries builds a TimeSeries whose Transmissions series is vals and
// every other series is zero, for exercising Merge arithmetic directly.
func flatSeries(vals []int64) *metrics.TimeSeries {
	ts := &metrics.TimeSeries{Rounds: len(vals) - 1}
	for i := range ts.Ints {
		ts.Ints[i] = make([]int64, len(vals))
	}
	for i := range ts.Floats {
		ts.Floats[i] = make([]float64, len(vals))
	}
	copy(ts.Ints[metrics.Transmissions], vals)
	return ts
}

// TestMetricsMergeStats checks the per-round fold: N, exact Sum,
// mean/min/max, the CI half-width, and the ragged-tail rule (replicas
// that stopped early drop out of later rounds' statistics).
func TestMetricsMergeStats(t *testing.T) {
	a, err := metrics.Merge([]*metrics.TimeSeries{
		flatSeries([]int64{0, 2, 4}),
		flatSeries([]int64{0, 4, 8, 6}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Replicas != 2 || a.Rounds != 3 {
		t.Fatalf("Replicas %d Rounds %d, want 2 and 3", a.Replicas, a.Rounds)
	}
	tx := a.Ints[metrics.Transmissions]
	r1 := tx[1]
	if r1.N != 2 || r1.Sum != 6 || r1.Mean != 3 || r1.Min != 2 || r1.Max != 4 {
		t.Errorf("round 1 stat %+v, want N=2 Sum=6 Mean=3 Min=2 Max=4", r1)
	}
	// sd of {2, 4} is sqrt(2); CI95 = 1.96*sqrt(2)/sqrt(2) = 1.96.
	if math.Abs(r1.CI95-1.96) > 1e-12 {
		t.Errorf("round 1 CI95 %g, want 1.96", r1.CI95)
	}
	// Round 3 exists only in the longer replica: a one-sample tail.
	r3 := tx[3]
	if r3.N != 1 || r3.Sum != 6 || r3.Mean != 6 || r3.CI95 != 0 {
		t.Errorf("ragged-tail stat %+v, want N=1 Sum=6 Mean=6 CI95=0", r3)
	}
}

// TestMetricsMergeValidation checks Merge rejects empty input.
func TestMetricsMergeValidation(t *testing.T) {
	if _, err := metrics.Merge(nil); err == nil {
		t.Error("Merge(nil) succeeded, want error")
	}
}

// TestMetricsRecorderGrowth checks recording past the preallocated bound
// grows the tables instead of dropping data: a recorder sized for 4
// rounds follows a flood around a 2×2 ring for 100.
func TestMetricsRecorderGrowth(t *testing.T) {
	cfg := core.Config{Topo: topology.NewGrid(2, 2), P: 1, TTL: 255, MaxRounds: 200, Seed: 1}
	rec := metrics.NewRecorder(metrics.Config{Rounds: 4})
	rec.Install(&cfg)
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(0, packet.Broadcast, 0, nil)
	for net.Round() < 99 {
		net.Step()
	}
	before := net.Counters().Energy.Transmissions
	net.Step()
	if got := rec.Series().Rounds; got != 100 {
		t.Fatalf("recorded rounds %d, want 100", got)
	}
	want := int64(net.Counters().Energy.Transmissions - before)
	if got := rec.Series().Int(metrics.Transmissions)[100]; got != want || got == 0 {
		t.Fatalf("round-100 transmissions after growth %d, want %d (non-zero)", got, want)
	}
}

// TestRecorderStepAllocs pins the tentpole's zero-allocation acceptance
// criterion: with a Recorder installed and its tables preallocated to
// cover the run, the steady-state Step still allocates nothing (the same
// bar core's TestStepAllocsSteadyState sets for the bare engine).
// Deliberately NOT named TestMetrics*: the CI race gate runs the
// TestMetrics* set, and race instrumentation skews allocation counts.
func TestRecorderStepAllocs(t *testing.T) {
	g := topology.NewGrid(8, 8)
	cfg := core.Config{Topo: g, P: 0.5, TTL: 255, MaxRounds: 100000, Seed: 1}
	rec := metrics.NewRecorder(metrics.Config{Rounds: 2048, Tech: energy.NoCLink025})
	rec.Install(&cfg)
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := n.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	rec.Watch(id)
	for i := 0; i < 60; i++ {
		n.Step()
	}
	if got := n.Aware(id); got != g.Tiles() {
		t.Fatalf("steady state not reached: %d/%d tiles aware", got, g.Tiles())
	}
	if allocs := testing.AllocsPerRun(100, n.Step); allocs > 2 {
		t.Fatalf("instrumented steady-state Step allocates %v per round, want <= 2", allocs)
	}
}
