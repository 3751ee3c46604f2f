package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/topology"
)

// The micro-kernels: timed loops placed by the benchmark around the
// public functions of each layer, one layer at a time. They run in
// every traced run, whatever the workload, because a per-layer number
// is only useful if it is measured by the same code in the same
// process conditions as the end-to-end number it is meant to explain.
// README's interaction table says which end-to-end metric each one
// should move, and on which workload.

// sink defeats dead-code elimination of the measured calls.
var sink uint64

// kernelRun carries the state shared by the kernels of one traced run.
type kernelRun struct {
	root  string
	nproc int
	scale float64 // iteration counts are multiplied by this (smoke tests shrink them)
	out   map[string]float64
}

// iters scales a full-size iteration count, keeping at least floor.
func (k *kernelRun) iters(full, floor int) int {
	return max(floor, int(float64(full)*k.scale))
}

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// runKernels measures every micro-kernel and returns the values keyed
// by per_layer metric name.
func runKernels(root string, nproc int, scale float64) (map[string]float64, error) {
	k := &kernelRun{root: root, nproc: nproc, scale: scale, out: map[string]float64{}}
	for _, step := range []func() error{
		k.rng, k.construct, k.step8x8, k.dense, k.sparse, k.lowp,
		k.snapshot, k.metricsLayer, k.simLayer, k.smcLayer, k.cache,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return k.out, nil
}

func (k *kernelRun) rng() error {
	r := rng.New(1)
	n := k.iters(10_000_000, 1000)
	var acc uint64
	k.out["rng.uint64_ns"] = perCall(n, func(int) { acc += r.Uint64() })
	th := rng.MakeThreshold(0.5)
	k.out["rng.boolt_ns"] = perCall(n, func(int) {
		if r.BoolT(th) {
			acc++
		}
	})
	inv := 1 / math.Log(1-0.001)
	n = k.iters(2_000_000, 1000)
	k.out["rng.geomskip_ns"] = perCall(n, func(int) { acc += uint64(r.GeometricSkip(inv)) })
	k.out["rng.split_ns"] = perCall(n, func(i int) { acc += r.Split(uint64(i)).Uint64() })
	sink += acc
	return nil
}

func (k *kernelRun) construct() error {
	var grid512 *topology.Grid
	k.out["topology.newgrid_ms.512x512"] = perCall(k.iters(3, 1), func(int) {
		grid512 = topology.NewGrid(512, 512)
	}) / 1e6

	var err error
	build := func(cfg core.Config, what string) func(int) {
		return func(int) {
			if _, e := mustNew(cfg, what); e != nil {
				err = e
			}
		}
	}
	grid8 := topology.NewGrid(8, 8)
	k.out["core.new_us.8x8"] = perCall(k.iters(2000, 10),
		build(core.Config{Topo: grid8, P: 0.5, TTL: 64, Seed: 1}, "8x8")) / 1e3
	grid64 := topology.NewGrid(denseSide, denseSide)
	k.out["core.new_ms.64x64"] = perCall(k.iters(20, 1), build(denseConfig(grid64, 1), "64x64")) / 1e6
	k.out["core.new_ms.512x512"] = perCall(k.iters(3, 1), build(sparseConfig(grid512, 1), "512x512")) / 1e6
	if err != nil {
		return err
	}

	// Inject on a recycling 64x64 mesh with a short TTL, stepping every
	// 64 injections so the table stays at its steady size.
	cfg := core.Config{Topo: grid64, P: 0.5, TTL: 4, MaxRounds: 1 << 30, Seed: 1}
	setKnob(&cfg, knobRecycle, true)
	n, err := mustNew(cfg, "64x64")
	if err != nil {
		return err
	}
	tiles := grid64.Tiles()
	var spent time.Duration
	count := k.iters(32_000, 256)
	for i := 0; i < count; i += 64 {
		t0 := time.Now()
		for j := 0; j < 64; j++ {
			if _, err := n.Inject(packet.TileID((i+j)*40503%tiles), packet.Broadcast, 0, nil); err != nil {
				return fmt.Errorf("core.inject kernel: %w", err)
			}
		}
		spent += time.Since(t0)
		n.Step()
	}
	k.out["core.inject_ns"] = float64(spent) / float64((count+63)/64*64)
	return nil
}

// warm8x8 is the steady state every small replica spends its time in:
// an 8x8 broadcast past its spread transient, every tile holding a
// live copy (the fixture of internal/core's BenchmarkStepGrid8x8).
func warm8x8(cfg core.Config) (*core.Network, error) {
	cfg.Topo = topology.NewGrid(8, 8)
	cfg.P, cfg.TTL, cfg.MaxRounds = 0.5, 255, 1<<30
	n, err := mustNew(cfg, "8x8")
	if err != nil {
		return nil, err
	}
	if _, err := n.Inject(0, packet.Broadcast, 0, make([]byte, 16)); err != nil {
		return nil, err
	}
	for i := 0; i < 60; i++ {
		n.Step()
	}
	return n, nil
}

// chunk8x8 is how many steady-state rounds one 8x8 fixture is stepped
// before it is rebuilt: the broadcast dies when its TTL runs out.
const chunk8x8 = 150

// step8x8 times the small-replica round four ways — bare Step, Step
// with a metrics.Recorder installed, sim.Loop around Step, and the
// literal-upset path — in interleaved chunks, so that a drift in host
// speed hits all four alike and the overhead percentages compare like
// with like.
func (k *kernelRun) step8x8() error {
	recorded := core.Config{Seed: 1}
	metrics.NewRecorder(metrics.Config{Rounds: 256}).Install(&recorded)
	literal := core.Config{Seed: 1, Fault: fault.Model{PUpset: 0.1, LiteralUpsets: true}}
	stepAll := func(n *core.Network) {
		for i := 0; i < chunk8x8; i++ {
			n.Step()
		}
	}
	variants := []struct {
		cfg   core.Config
		run   func(n *core.Network)
		every int // run this variant in every n-th chunk only
		spent time.Duration
		done  int
	}{
		{cfg: core.Config{Seed: 1}, run: stepAll, every: 1},
		{cfg: recorded, run: stepAll, every: 1},
		{cfg: core.Config{Seed: 1}, every: 1, run: func(n *core.Network) {
			loop := sim.Loop{Net: n, MaxRounds: n.Round() + chunk8x8,
				Done:    func(*core.Network) bool { return false },
				Barrier: func(*core.Network) sim.BarrierOp { return sim.OpContinue },
				OnRound: func(*core.Network) {}}
			loop.Run()
		}},
		// Packet encode and CRC per transmission cost ~15x a plain round.
		{cfg: literal, run: stepAll, every: 8},
	}
	for c := 0; c < k.iters(40, 8); c++ {
		for v := range variants {
			if c%variants[v].every != 0 {
				continue
			}
			n, err := warm8x8(variants[v].cfg)
			if err != nil {
				return err
			}
			t0 := time.Now()
			variants[v].run(n)
			variants[v].spent += time.Since(t0)
			variants[v].done += chunk8x8
		}
	}
	ns := func(v int) float64 { return float64(variants[v].spent) / float64(variants[v].done) }
	k.out["core.step_us.8x8"] = ns(0) / 1e3
	k.out["metrics.recorder_overhead_pct.8x8"] = (ns(1)/ns(0) - 1) * 100
	k.out["sim.loop_overhead_pct"] = (ns(2)/ns(0) - 1) * 100
	k.out["core.step_us.literal"] = ns(3) / 1e3
	return nil
}

// warmDense builds the mesh_dense fabric and steps it until every tile
// holds a live copy (a p = 0.5 centre broadcast covers the mesh in a
// little over side rounds).
func warmDense(cfg core.Config) (*core.Network, error) {
	n, err := mustNew(cfg, "64x64")
	if err != nil {
		return nil, err
	}
	grid := cfg.Topo.(*topology.Grid)
	if _, err := n.Inject(grid.ID(denseSide/2, denseSide/2), packet.Broadcast, 0, make([]byte, 16)); err != nil {
		return nil, err
	}
	for i := 0; i < denseSide+30; i++ {
		n.Step()
	}
	return n, nil
}

// stepCost is what a timed Step loop measured.
type stepCost struct {
	msPerRound, nsPerTx, allocs, allocBytes float64
}

func (c *stepCost) add(d stepCost) {
	c.msPerRound += d.msPerRound
	c.nsPerTx += d.nsPerTx
	c.allocs += d.allocs
	c.allocBytes += d.allocBytes
}

func (c *stepCost) scale(f float64) {
	c.msPerRound *= f
	c.nsPerTx *= f
	c.allocs *= f
	c.allocBytes *= f
}

// timeRounds runs round (which must Step n once) rounds times and
// reports wall time, host time per simulated transmission, and heap
// allocation per round from runtime.MemStats deltas.
func timeRounds(n *core.Network, rounds int, round func() error) (stepCost, error) {
	var m0, m1 runtime.MemStats
	tx0 := n.Counters().Energy.Transmissions
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := round(); err != nil {
			return stepCost{}, err
		}
	}
	spent := time.Since(t0)
	runtime.ReadMemStats(&m1)
	c := stepCost{
		msPerRound: float64(spent) / 1e6 / float64(rounds),
		allocs:     float64(m1.Mallocs-m0.Mallocs) / float64(rounds),
		allocBytes: float64(m1.TotalAlloc-m0.TotalAlloc) / float64(rounds),
	}
	if tx := n.Counters().Energy.Transmissions - tx0; tx > 0 {
		c.nsPerTx = float64(spent) / float64(tx)
	}
	return c, nil
}

// justStep is the round of a fabric that needs no injection.
func justStep(n *core.Network) func() error {
	return func() error { n.Step(); return nil }
}

func (k *kernelRun) dense() error {
	grid := topology.NewGrid(denseSide, denseSide)
	// Three networks on the mesh_dense fabric — sequential, Shards =
	// nproc, and sequential with a recorder — stepped in interleaved
	// blocks so host drift cancels out of the ratios. No end-to-end
	// workload shards: the speed-up is the committed number ROADMAP item
	// 3(a) decides the fork with.
	sharded, recorded := denseConfig(grid, 1), denseConfig(grid, 1)
	setKnob(&sharded, knobShards, k.nproc)
	metrics.NewRecorder(metrics.Config{Rounds: 512}).Install(&recorded)
	var nets [3]*core.Network
	var cost [3]stepCost
	for i, cfg := range []core.Config{denseConfig(grid, 1), sharded, recorded} {
		n, err := warmDense(cfg)
		if err != nil {
			return err
		}
		nets[i] = n
	}
	const block = 10
	blocks := k.iters(8, 1)
	for b := 0; b < blocks; b++ {
		for i, n := range nets {
			c, err := timeRounds(n, block, justStep(n))
			if err != nil {
				return err
			}
			cost[i].add(c)
		}
	}
	for i := range cost {
		cost[i].scale(1 / float64(blocks))
	}
	k.out["core.step_ms.dense"] = cost[0].msPerRound
	k.out["core.ns_per_tx.dense"] = cost[0].nsPerTx
	k.out["core.allocs_per_round.dense"] = cost[0].allocs
	k.out["core.alloc_bytes_per_round.dense"] = cost[0].allocBytes
	k.out["core.step_ms.dense_sharded"] = cost[1].msPerRound
	k.out["core.shard_speedup"] = cost[0].msPerRound / cost[1].msPerRound
	k.out["metrics.recorder_overhead_pct.dense"] = (cost[2].msPerRound/cost[0].msPerRound - 1) * 100
	return nil
}

func (k *kernelRun) sparse() error {
	grid := topology.NewGrid(sparseSide, sparseSide)
	n, err := mustNew(sparseConfig(grid, 1), "512x512")
	if err != nil {
		return err
	}
	src := rng.New(2)
	round := func() error { return sparseRound(n, src, grid.Tiles()) }
	for n.Round() < sparseCheckRound { // past 2xTTL: steady live population
		if err := round(); err != nil {
			return err
		}
	}
	c, err := timeRounds(n, k.iters(60, 5), round)
	if err != nil {
		return err
	}
	k.out["core.step_ms.sparse"] = c.msPerRound
	k.out["core.ns_per_tx.sparse"] = c.nsPerTx
	k.out["core.allocs_per_round.sparse"] = c.allocs
	k.out["core.alloc_bytes_per_round.sparse"] = c.allocBytes
	mem := n.Mem()
	k.out["core.table_bytes_per_tile.sparse"] = float64(mem.TableBytes) / float64(grid.Tiles())
	k.out["core.live_msgs.sparse"] = float64(mem.Live)
	return nil
}

// lowp measures the draw-dominated fabric the batch kernel exists for
// (internal/core's DenseBcast benchmark): 64x64, p = 0.001, TTL 192,
// 192 broadcasts injected per round, default draws against BatchDraws.
func (k *kernelRun) lowp() error {
	grid := topology.NewGrid(denseSide, denseSide)
	warm, rounds := k.iters(250, 20), k.iters(60, 5) // warm-up runs past the TTL: steady live population
	run := func(batch bool) (float64, error) {
		cfg := core.Config{Topo: grid, P: 0.001, TTL: 192, MaxRounds: 1 << 30, Seed: 1}
		setKnob(&cfg, knobRecycle, true)
		if batch {
			setKnob(&cfg, knobBatchDraws, true)
		}
		n, err := mustNew(cfg, "64x64")
		if err != nil {
			return 0, err
		}
		r := 0
		round := func() error {
			for i := 0; i < 192; i++ {
				src := packet.TileID((r*192*2654435761 + i*40503) % grid.Tiles())
				if _, err := n.Inject(src, packet.Broadcast, 0, nil); err != nil {
					return err
				}
			}
			r++
			n.Step()
			return nil
		}
		for i := 0; i < warm; i++ {
			if err := round(); err != nil {
				return 0, err
			}
		}
		c, err := timeRounds(n, rounds, round)
		return c.msPerRound, err
	}
	def, err := run(false)
	if err != nil {
		return err
	}
	batch, err := run(true)
	if err != nil {
		return err
	}
	k.out["core.step_ms.lowp"] = def
	k.out["core.step_ms.lowp_batch"] = batch
	k.out["core.batch_speedup"] = def / batch
	return nil
}

// snapshot measures what a serve_mixed preemption pays: serialising a
// mid-broadcast 64x64 engine, restoring it, and the same through
// sim.Checkpointer on the real disk.
func (k *kernelRun) snapshot() error {
	grid := topology.NewGrid(denseSide, denseSide)
	cfg := denseConfig(grid, 1)
	n, err := warmDense(cfg)
	if err != nil {
		return err
	}
	reps := k.iters(10, 1)
	var buf bytes.Buffer
	k.out["core.snapshot_ms.64x64"] = perCall(reps, func(int) {
		buf.Reset()
		if e := n.Snapshot(&buf); e != nil {
			err = e
		}
	}) / 1e6
	k.out["core.snapshot_bytes.64x64"] = float64(buf.Len())
	k.out["core.restore_ms.64x64"] = perCall(reps, func(int) {
		if _, e := core.Restore(bytes.NewReader(buf.Bytes()), cfg); e != nil {
			err = e
		}
	}) / 1e6
	if err != nil {
		return fmt.Errorf("snapshot kernel: %w", err)
	}

	dir := filepath.Join(buildDir(k.root), "run", fmt.Sprintf("ckpt-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	ck := sim.Checkpointer{Dir: dir, Every: 1}
	meta := sim.CheckpointMeta{Replica: 1, Seed: cfg.Seed}
	k.out["sim.ckpt_save_ms.64x64"] = perCall(reps, func(int) {
		if e := ck.Save(meta, n, nil); e != nil {
			err = e
		}
	}) / 1e6
	k.out["sim.ckpt_load_ms.64x64"] = perCall(reps, func(int) {
		if _, ok, e := sim.LoadReplica(dir, meta, cfg, nil); e != nil || !ok {
			err = fmt.Errorf("load: ok=%v err=%v", ok, e)
		}
	}) / 1e6
	if err != nil {
		return fmt.Errorf("checkpoint kernel: %w", err)
	}
	return nil
}

func (k *kernelRun) metricsLayer() error {
	// A finished 8x8 job's recorder, as nocsimd's runJob holds it.
	cfg := core.Config{Topo: topology.NewGrid(8, 8), P: 0.5, TTL: 64, MaxRounds: 100, Seed: 1}
	rec := metrics.NewRecorder(metrics.Config{Rounds: 100})
	rec.Install(&cfg)
	n, err := mustNew(cfg, "8x8")
	if err != nil {
		return err
	}
	id, err := n.Inject(0, 63, 1, make([]byte, 16))
	if err != nil {
		return err
	}
	rec.Watch(id)
	for n.Round() < 40 {
		n.Step()
	}
	str := metrics.NewStreamer(rec)
	var acc int
	k.out["metrics.roundline_ns"] = perCall(k.iters(200_000, 100), func(i int) { acc += len(str.RoundLine(i % 41)) })
	k.out["metrics.series_us"] = perCall(k.iters(20_000, 10), func(int) { acc += len(rec.Series().Int(metrics.AwareTiles)) }) / 1e3
	sink += uint64(acc)
	return nil
}

func (k *kernelRun) simLayer() error {
	// Dispatch cost: sim.Run around a body that does nothing.
	reps := k.iters(200_000, 1000)
	t0 := time.Now()
	if _, err := sim.Run(sim.Config{Replicas: reps, Workers: k.nproc, Seed: 1},
		func(int, uint64) (struct{}, error) { return struct{}{}, nil }); err != nil {
		return err
	}
	k.out["sim.dispatch_ns_per_replica"] = float64(time.Since(t0)) / float64(reps)

	// Worker utilisation: a bench-owned body (one 16x16 model run, about
	// a millisecond) that times itself; the rest of workers x wall is
	// dispatch, imbalance and idling at the end of the pool.
	model := smcModel()
	var busy atomic.Int64
	reps = k.iters(256, 16)
	t0 = time.Now()
	_, err := sim.Run(sim.Config{Replicas: reps, Workers: k.nproc, Seed: 1},
		func(_ int, seed uint64) (struct{}, error) {
			b0 := time.Now()
			_, err := model.Run(seed, 48)
			busy.Add(int64(time.Since(b0)))
			return struct{}{}, err
		})
	if err != nil {
		return err
	}
	k.out["sim.worker_util"] = float64(busy.Load()) / (float64(k.nproc) * float64(time.Since(t0)))
	return nil
}

func (k *kernelRun) smcLayer() error {
	var err error
	var prop smc.Property
	k.out["smc.parse_ns"] = perCall(k.iters(100_000, 100), func(int) {
		if prop, err = smc.Parse(smcProperty); err != nil {
			return
		}
	})
	if err != nil {
		return err
	}
	model := smcModel()
	ts, err := model.Run(1, prop.Horizon())
	if err != nil {
		return err
	}
	var acc uint64
	k.out["smc.eval_ns"] = perCall(k.iters(1_000_000, 100), func(int) {
		if prop.Eval(ts) {
			acc++
		}
	})
	// One SPRT per 100 outcomes, like a verdict: Add freezes once the
	// test settles, so a single long-lived test would time the frozen
	// path only.
	var test *smc.SPRT
	k.out["smc.sprt_add_ns"] = perCall(k.iters(1_000_000, 100), func(i int) {
		if i%100 == 0 {
			test, _ = smc.NewSPRT(0.9, 0.02, 0.01, 0.01)
		}
		if test.Add(i%10 != 0) == smc.Accepted {
			acc++
		}
	})
	k.out["smc.model_run_us.16x16"] = perCall(k.iters(150, 5), func(i int) {
		if _, e := model.Run(uint64(i+1), prop.Horizon()); e != nil {
			err = e
		}
	}) / 1e3
	sink += acc
	return err
}

// cache times service.Cache directly with an entry the size of an 8x8
// job's result (the read serve_cached pays, the write serve_cold pays).
func (k *kernelRun) cache() error {
	dir := filepath.Join(buildDir(k.root), "run", fmt.Sprintf("cache-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	c, err := service.OpenCache(dir)
	if err != nil {
		return err
	}
	canon := []byte(`{"width":8,"height":8,"src":0,"dst":63,"p":0.5,"ttl":64,"seed":1,"max_rounds":100,"payload":16}`)
	payload := bytes.Repeat([]byte("x"), 6<<10)
	status := service.Status{ID: "j-000001", State: service.StateDone, Rounds: 40, DeliveredRound: 40}
	const keys = 64
	key := func(i int) string { return fmt.Sprintf("%08x-%016x-r100", 0xbe7c4, i%keys) }
	k.out["service.cache_put_us"] = perCall(k.iters(1000, keys), func(i int) {
		if e := c.Put(key(i), canon, payload, status); e != nil {
			err = e
		}
	}) / 1e3
	k.out["service.cache_get_us"] = perCall(k.iters(4000, keys), func(i int) {
		if _, _, ok := c.Get(key(i), canon); !ok {
			err = fmt.Errorf("cache kernel: miss on %s", key(i))
		}
	}) / 1e3
	return err
}
