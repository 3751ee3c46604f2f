package sim_test

import (
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
// 4x4 grid with a metrics recorder attached — returning the standard
// metrics record. This is the body shape every figure runner uses.
func coreReplica(_ int, seed uint64) (sim.Metrics, error) {
	rec := metrics.NewRecorder(metrics.Config{Rounds: 60})
	cfg := core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 10, MaxRounds: 60,
		Seed:  seed,
		Fault: fault.Model{PUpset: 0.2, POverflow: 0.1},
	}
	rec.Install(&cfg)
	net, err := core.New(cfg)
	if err != nil {
		return sim.Metrics{}, err
	}
	net.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	for r := 0; r < 40 && !net.Quiescent(); r++ {
		net.Step()
	}
	res := core.Result{Completed: true, Rounds: net.Round()}
	return sim.Measure(net, res, energy.NoCLink025, rec), nil
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
		rec := metrics.NewRecorder(metrics.Config{Rounds: 80})
		cfg := core.Config{
			Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 10, MaxRounds: 80,
			Seed:  s,
			Fault: fault.Model{SigmaSync: 1.5, PUpset: 0.1},
		}
		rec.Install(&cfg)
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
		return sim.Measure(net, res, energy.NoCLink025, rec), nil
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

// TestMeasureCountsAreRecorderTotals pins Measure's field mapping: each
// Counts field is the run total of its recorder series, so the fields
// the engine also counts match core.Counters.
func TestMeasureCountsAreRecorderTotals(t *testing.T) {
	rec := metrics.NewRecorder(metrics.Config{Rounds: 60})
	cfg := core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.75, TTL: 10, MaxRounds: 60, Seed: 3,
		Fault: fault.Model{PUpset: 0.25, POverflow: 0.1},
	}
	rec.Install(&cfg)
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	net.Drain(60)
	got := sim.Measure(net, core.Result{}, energy.NoCLink025, rec).Counts
	c := net.Counters()
	want := sim.Counts{
		Created: 1, Transmissions: c.Energy.Transmissions, CRCRejects: c.UpsetsDetected,
		OverflowDrops: c.OverflowDrops, Deliveries: c.Deliveries,
		TTLExpiries: int(rec.Total(metrics.TTLExpiries)),
	}
	if got != want {
		t.Fatalf("Measure counts %+v, want %+v", got, want)
	}
	if got.CRCRejects == 0 || got.OverflowDrops == 0 || got.TTLExpiries == 0 {
		t.Fatalf("degenerate run: %+v", got)
	}
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
