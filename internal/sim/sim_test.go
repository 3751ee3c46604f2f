package sim_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

var errFail = errors.New("replica failure")

func TestSeedsPrefixStable(t *testing.T) {
	long := sim.Seeds(7, 8)
	short := sim.Seeds(7, 5)
	if !reflect.DeepEqual(long[:5], short) {
		t.Fatalf("growing a study changed earlier seeds:\n %v\n %v", long[:5], short)
	}
	seen := map[uint64]bool{}
	for _, s := range long {
		if seen[s] {
			t.Fatalf("duplicate replica seed %#x", s)
		}
		seen[s] = true
	}
}

// coreReplica is one full round-engine run — broadcast over a faulty
// 4x4 grid with no hook attached — returning the standard metrics
// record. This is the body shape every figure runner uses.
func coreReplica(_ int, seed uint64) (sim.Metrics, error) {
	cfg := core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 10, MaxRounds: 60,
		Seed:  seed,
		Fault: fault.Model{PUpset: 0.2, POverflow: 0.1},
	}
	net, err := core.New(cfg)
	if err != nil {
		return sim.Metrics{}, err
	}
	net.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	for r := 0; r < 40 && !net.Quiescent(); r++ {
		net.Step()
	}
	res := core.Result{Completed: true, Rounds: net.Round()}
	return sim.Measure(net, res, energy.NoCLink025), nil
}

// TestRunDeterministicAcrossWorkers is the regression gate for the
// runner's core guarantee: workers=1, workers=4 and the GOMAXPROCS
// default produce byte-identical results, because the replica index —
// not scheduling — picks each replica's seed and result slot.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	const replicas, seed = 12, 42
	run := func(workers int) sim.Aggregate {
		agg, err := sim.RunMetrics(
			sim.Config{Replicas: replicas, Workers: workers, Seed: seed}, coreReplica)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	sequential := run(1)
	for _, w := range []int{4, 0} { // 0 = GOMAXPROCS default
		if got := run(w); !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d diverged from sequential:\n%+v\nvs\n%+v", w, got, sequential)
		}
	}
	if sequential.Transmissions.Mean == 0 {
		t.Fatal("replicas did not actually run (no transmissions)")
	}
	if sequential.CRCRejects.Mean == 0 {
		t.Fatal("fault model inactive (no CRC rejects at PUpset=0.2)")
	}
}

// TestRunDeterministicAcrossWorkersWithSlip repeats the worker-count
// invariance with synchronization skew active (σ_synchr > 0), so copies
// cross round boundaries through the engine's per-tile arrival rings:
// multi-round in-flight state must not perturb seeding or determinism.
func TestRunDeterministicAcrossWorkersWithSlip(t *testing.T) {
	const replicas, seed = 12, 42
	var slipped atomic.Int64 // summed across replicas: order-independent
	slipReplica := func(_ int, s uint64) (sim.Metrics, error) {
		cfg := core.Config{
			Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 10, MaxRounds: 80,
			Seed:  s,
			Fault: fault.Model{SigmaSync: 1.5, PUpset: 0.1},
		}
		net, err := core.New(cfg)
		if err != nil {
			return sim.Metrics{}, err
		}
		net.Inject(0, packet.Broadcast, 0, make([]byte, 16))
		for r := 0; r < 60 && !net.Quiescent(); r++ {
			net.Step()
		}
		slipped.Add(int64(net.Counters().SlippedDeliveries))
		res := core.Result{Completed: true, Rounds: net.Round()}
		return sim.Measure(net, res, energy.NoCLink025), nil
	}
	run := func(workers int) sim.Aggregate {
		agg, err := sim.RunMetrics(
			sim.Config{Replicas: replicas, Workers: workers, Seed: seed}, slipReplica)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	sequential := run(1)
	for _, w := range []int{4, 0} {
		if got := run(w); !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d diverged from sequential:\n%+v\nvs\n%+v", w, got, sequential)
		}
	}
	if slipped.Load() == 0 {
		t.Fatal("fault model inactive (no slipped receptions at σ=1.5)")
	}
}

// TestRunDeterministicDiversity repeats the worker-count invariance on a
// second, structurally different workload: the Chapter 5 beamforming
// comparison from internal/diversity.
func TestRunDeterministicDiversity(t *testing.T) {
	const replicas, seed = 4, 7
	run := func(workers int) []*diversity.Result {
		out, err := sim.Run(sim.Config{Replicas: replicas, Workers: workers, Seed: seed},
			func(_ int, seed uint64) (*diversity.Result, error) {
				return diversity.RunBeamforming(diversity.Build(diversity.FlatNoC),
					diversity.CompareConfig{Seed: seed, Blocks: 1})
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sequential := run(1)
	for _, w := range []int{4, 0} {
		if got := run(w); !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d diverged from sequential", w)
		}
	}
	for r, res := range sequential {
		if res.Transmissions == 0 {
			t.Fatalf("replica %d ran no traffic", r)
		}
	}
}

// TestRunErrorDeterministic: with several failing replicas, the reported
// error is the lowest-indexed one no matter how replicas were scheduled.
func TestRunErrorDeterministic(t *testing.T) {
	for _, w := range []int{1, 4} {
		_, err := sim.Run(sim.Config{Replicas: 8, Workers: w, Seed: 1},
			func(r int, _ uint64) (int, error) {
				if r == 2 || r == 6 {
					return 0, errFail
				}
				return r, nil
			})
		if err == nil {
			t.Fatalf("workers=%d: failing replicas not reported", w)
		}
		if !strings.Contains(err.Error(), "replica 2") {
			t.Fatalf("workers=%d: got %q, want lowest failing replica 2", w, err)
		}
	}
}

func TestRunRejectsNonPositiveReplicas(t *testing.T) {
	if _, err := sim.Run(sim.Config{}, func(int, uint64) (int, error) { return 0, nil }); err == nil {
		t.Fatal("Replicas=0 accepted")
	}
}

// measureCase is one engine configuration of TestMeasureMatchesRecorder:
// a fault mix, a shard count, broadcasts and unicasts injected before
// given rounds, and optionally a process that creates a message mid-run
// (Ctx.Send, the other creation site).
type measureCase struct {
	cfg    core.Config
	inject []measureInjection
	sender bool // attach broadcastAt to tile 1
	rounds int
}

type measureInjection struct {
	before   int
	src, dst packet.TileID
}

// broadcastAt broadcasts one message from its tile in round 3.
type broadcastAt struct{}

func (broadcastAt) Init(*core.Ctx) {}

func (broadcastAt) Round(ctx *core.Ctx) {
	if ctx.Round() == 3 {
		ctx.Broadcast(0, []byte("mid-run"))
	}
}

// genMeasureCase draws case idx: every fault of the analytic and literal
// paths, StopSpreadOnDelivery, and 1 or 2 shards (a two-shard case gets
// at least two whole 64-tile words, so it really runs two lanes).
func genMeasureCase(idx int) measureCase {
	g := rng.New(0x3ea5).Split(uint64(idx))
	shards := 1 + g.Intn(2)
	side := 4 + g.Intn(6)
	if shards == 2 {
		side = 12 + g.Intn(5)
	}
	tiles := side * side
	c := measureCase{
		cfg: core.Config{
			Topo: topology.NewGrid(side, side), P: 0.3 + 0.6*g.Float64(),
			TTL: uint8(3 + g.Intn(10)), MaxRounds: 1000, Seed: g.Uint64(),
			Shards: shards, StopSpreadOnDelivery: g.Bool(0.2),
		},
		sender: g.Bool(0.3),
		rounds: 10 + g.Intn(30),
	}
	f := &c.cfg.Fault
	if g.Bool(0.7) {
		f.PUpset = 0.3 * g.Float64()
		f.LiteralUpsets = g.Bool(0.25)
	}
	if g.Bool(0.4) {
		f.POverflow = 0.2 * g.Float64()
	}
	if g.Bool(0.4) {
		f.SigmaSync = 1.5 * g.Float64()
	}
	for i, k := 0, 1+g.Intn(3); i < k; i++ {
		in := measureInjection{
			before: g.Intn(c.rounds / 2), src: packet.TileID(g.Intn(tiles)), dst: packet.Broadcast,
		}
		if g.Bool(0.4) {
			in.dst = packet.TileID(g.Intn(tiles))
		}
		c.inject = append(c.inject, in)
	}
	return c
}

// build returns the case's network, with rec installed when non-nil.
func (c measureCase) build(tb testing.TB, rec *metrics.Recorder) *core.Network {
	tb.Helper()
	cfg := c.cfg
	if rec != nil {
		rec.Install(&cfg)
	}
	net, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if c.sender {
		net.Attach(1, broadcastAt{})
	}
	return net
}

// stepTo steps net from its current round to round until, injecting on
// schedule.
func (c measureCase) stepTo(tb testing.TB, net *core.Network, until int) {
	tb.Helper()
	for r := net.Round(); r < until; r++ {
		for _, in := range c.inject {
			if in.before == r {
				if _, err := net.Inject(in.src, in.dst, 0, []byte("m")); err != nil {
					tb.Fatal(err)
				}
			}
		}
		net.Step()
	}
}

// run finishes the case on net: the remaining rounds, then a drain.
func (c measureCase) run(tb testing.TB, net *core.Network) {
	tb.Helper()
	c.stepTo(tb, net, c.rounds)
	net.Drain(4 * int(c.cfg.TTL))
}

// recorderCounts reads rec's run totals in Counts' field order.
func recorderCounts(rec *metrics.Recorder) sim.Counts {
	return sim.Counts{
		Created:       int(rec.Total(metrics.Created)),
		Transmissions: int(rec.Total(metrics.Transmissions)),
		CRCRejects:    int(rec.Total(metrics.CRCRejects)),
		OverflowDrops: int(rec.Total(metrics.OverflowDrops)),
		Deliveries:    int(rec.Total(metrics.Deliveries)),
		TTLExpiries:   int(rec.Total(metrics.TTLExpiries)),
	}
}

// TestMeasureMatchesRecorder pins Measure's engine-side counts against
// the recorder's event tallies. Each generated case runs twice from one
// seed: with no hook, so the engine settles upsets at the sender and
// Measure reads only Counters and Tally, and with a metrics.Recorder
// installed, whose OnEvent hook keeps every upset on the ring path. The
// counts must be equal field for field. The resumed case checks that
// Tally, like a hook, restarts at Restore while Counters carry the
// snapshot's totals.
func TestMeasureMatchesRecorder(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 20
	}
	var total sim.Counts
	sharded := 0
	for idx := 0; idx < cases; idx++ {
		c := genMeasureCase(idx)
		net := c.build(t, nil)
		c.run(t, net)
		got := sim.Measure(net, core.Result{}, energy.NoCLink025).Counts
		rec := metrics.NewRecorder(metrics.Config{Rounds: 60})
		c.run(t, c.build(t, rec))
		if want := recorderCounts(rec); got != want {
			t.Fatalf("case %d (%+v): Measure counts %+v, recorder totals %+v", idx, c.cfg, got, want)
		}
		if net.Shards() > 1 {
			sharded++
		}
		total.Created += got.Created
		total.CRCRejects += got.CRCRejects
		total.OverflowDrops += got.OverflowDrops
		total.TTLExpiries += got.TTLExpiries
	}
	if sharded == 0 || total.Created == 0 || total.CRCRejects == 0 || total.OverflowDrops == 0 || total.TTLExpiries == 0 {
		t.Fatalf("degenerate population: %d sharded cases, totals %+v", sharded, total)
	}

	t.Run("resumed", func(t *testing.T) {
		// A hook-free run is checkpointed mid-run and restored twice, with
		// no hook and with a fresh recorder. The resumed Measure counts
		// must be the recorder's post-restore totals plus, for the fields
		// Counters backs, the counts at the checkpoint.
		c := measureCase{
			cfg: core.Config{
				Topo: topology.NewGrid(6, 6), P: 0.6, TTL: 8, MaxRounds: 1000, Seed: 9,
				Fault: fault.Model{PUpset: 0.2, POverflow: 0.1, SigmaSync: 0.7},
			},
			inject: []measureInjection{{0, 0, packet.Broadcast}, {6, 35, 7}},
			sender: true,
			rounds: 20,
		}
		const k = 8
		net := c.build(t, nil)
		c.stepTo(t, net, k)
		var buf bytes.Buffer
		if err := net.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		at := sim.Measure(net, core.Result{}, energy.NoCLink025).Counts
		if at.Created == 0 || at.TTLExpiries == 0 {
			t.Fatalf("checkpoint round %d precedes the events it should split: %+v", k, at)
		}
		restore := func(rec *metrics.Recorder) *core.Network {
			cfg := c.cfg
			if rec != nil {
				rec.Install(&cfg)
			}
			n, err := core.Restore(bytes.NewReader(buf.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			n.Attach(1, broadcastAt{})
			return n
		}
		resumed := restore(nil)
		if created, expired := resumed.Tally(); created != 0 || expired != 0 {
			t.Fatalf("restored tally = (%d, %d), want (0, 0)", created, expired)
		}
		c.run(t, resumed)
		got := sim.Measure(resumed, core.Result{}, energy.NoCLink025).Counts
		rec := metrics.NewRecorder(metrics.Config{Rounds: 60})
		c.run(t, restore(rec))
		want := recorderCounts(rec)
		want.Transmissions += at.Transmissions
		want.CRCRejects += at.CRCRejects
		want.OverflowDrops += at.OverflowDrops
		want.Deliveries += at.Deliveries
		if got != want {
			t.Fatalf("resumed Measure counts %+v, want %+v", got, want)
		}
	})
}

func TestSummarizeSplitsCompletedFromEventStats(t *testing.T) {
	agg := sim.Summarize([]sim.Metrics{
		{Completed: true, Rounds: 10, Counts: sim.Counts{Transmissions: 100}},
		{Completed: true, Rounds: 20, Counts: sim.Counts{Transmissions: 200}},
		{Completed: false, Rounds: 60, Counts: sim.Counts{Transmissions: 300}},
	})
	if agg.Replicas != 3 || agg.Completed != 2 {
		t.Fatalf("replicas/completed = %d/%d", agg.Replicas, agg.Completed)
	}
	// Rounds averages completed replicas only; the DNF's MaxRounds value
	// must not leak in.
	if agg.Rounds.Mean != 15 {
		t.Fatalf("rounds mean %v, want 15 (completed only)", agg.Rounds.Mean)
	}
	// Event counters cover every replica.
	if agg.Transmissions.Mean != 200 {
		t.Fatalf("tx mean %v, want 200 (all replicas)", agg.Transmissions.Mean)
	}
	if agg.CompletionRate != 2.0/3.0 {
		t.Fatalf("completion rate %v", agg.CompletionRate)
	}
}

func TestAutoShards(t *testing.T) {
	cases := []struct {
		name  string
		cfg   sim.Config
		tiles int
		want  int
	}{
		// Replicas saturate the pool: stay sequential.
		{"saturated", sim.Config{Replicas: 8, Workers: 8}, 16384, 1},
		{"oversubscribed", sim.Config{Replicas: 100, Workers: 4}, 16384, 1},
		// One replica on an 8-core pool, mesh above the shard floor: all
		// spare cores go to sharding.
		{"single-replica", sim.Config{Replicas: 1, Workers: 8}, 16384, 8},
		// Spare cores split across the running replicas.
		{"split", sim.Config{Replicas: 2, Workers: 8}, 16384, 4},
		// Meshes below the measured shard floor never shard, no matter how
		// many cores are idle: the barriers cost more than the lanes gain.
		{"small-mesh", sim.Config{Replicas: 1, Workers: 16}, 64, 1},
		{"below-floor", sim.Config{Replicas: 1, Workers: 16}, 4096, 1},
		{"floor-boundary", sim.Config{Replicas: 1, Workers: 16}, 16384 - 1, 1},
		// At the floor the tiles/64 cap still applies above it.
		{"floor-capped", sim.Config{Replicas: 1, Workers: 512}, 16384, 256},
		// Mega-meshes shard with the whole pool even when replicas
		// saturate it: concurrent mega-replicas would multiply peak
		// memory by the pool size.
		{"mega-saturated", sim.Config{Replicas: 8, Workers: 8}, 512 * 512, 8},
		{"mega-boundary", sim.Config{Replicas: 100, Workers: 4}, 1 << 16, 4},
		{"below-mega", sim.Config{Replicas: 100, Workers: 4}, 1<<16 - 64, 1},
	}
	for _, c := range cases {
		if got := c.cfg.AutoShards(c.tiles); got != c.want {
			t.Errorf("%s: AutoShards(%d) = %d, want %d", c.name, c.tiles, got, c.want)
		}
	}
	// The tiles/64 cap is the engine's own clamp, so AutoShards never asks
	// for shards core.New would not grant — pinned where the cap binds (a
	// pool far wider than the mesh has words), on a mesh of whole words and
	// on one whose last word is partial.
	for _, side := range []int{128, 129} {
		tiles := side * side
		shards := sim.Config{Replicas: 1, Workers: 512}.AutoShards(tiles)
		n, err := core.New(core.Config{
			Topo: topology.NewGrid(side, side), P: 0.5, TTL: 4, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if shards != tiles/64 || n.Shards() != shards {
			t.Errorf("%dx%d: AutoShards = %d (cap %d), engine runs %d", side, side, shards, tiles/64, n.Shards())
		}
	}
}

// TestAutoShardsZeroWorkersPositive pins the default-pool path: whatever
// GOMAXPROCS is, the result is at least 1 (a valid core.Config.Shards).
func TestAutoShardsZeroWorkersPositive(t *testing.T) {
	if got := (sim.Config{Replicas: 1}).AutoShards(1 << 20); got < 1 {
		t.Fatalf("AutoShards = %d, want >= 1", got)
	}
}

// RunOffset's contract: the seed a replica sees depends only on its
// absolute index, never on how the sequence is sliced into windows.
func TestRunOffsetSeedsArePrefixStable(t *testing.T) {
	const master, total = 0xfeed, 24
	want := sim.Seeds(master, total)

	collect := func(windows [][2]int, workers int) []uint64 {
		got := make([]uint64, total)
		for _, w := range windows {
			cfg := sim.Config{Replicas: w[1], Workers: workers, Seed: master}
			_, err := sim.RunOffset(cfg, w[0], func(replica int, seed uint64) (struct{}, error) {
				got[replica] = seed
				return struct{}{}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return got
	}

	for _, tc := range []struct {
		name    string
		windows [][2]int
		workers int
	}{
		{"oneWindow", [][2]int{{0, 24}}, 1},
		{"threeWindows", [][2]int{{0, 8}, {8, 8}, {16, 8}}, 4},
		{"unevenWindows", [][2]int{{0, 5}, {5, 13}, {18, 6}}, 3},
	} {
		got := collect(tc.windows, tc.workers)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%s: replica %d saw seed %#x, Seeds gives %#x", tc.name, r, got[r], want[r])
			}
		}
	}
}

func TestRunOffsetRejectsNegativeOffset(t *testing.T) {
	_, err := sim.RunOffset(sim.Config{Replicas: 1}, -1, func(int, uint64) (int, error) { return 0, nil })
	if err == nil {
		t.Fatal("negative offset accepted")
	}
}
