package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// simStats is the simulated-statistics fingerprint of one run: what a
// re-run under the same seed must reproduce exactly.
type simStats struct {
	Round    int
	Counters core.Counters
}

func statsOf(n *core.Network) simStats { return simStats{n.Round(), n.Counters()} }

// mustNew builds a network or reports which fabric failed.
func mustNew(cfg core.Config, what string) (*core.Network, error) {
	n, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("core.New %s: %w", what, err)
	}
	return n, nil
}

// denseConfig is the mesh_dense fabric, also used by the dense
// micro-kernels: 64x64, p = 0.5, TTL 255, default knobs (sequential
// engine), one broadcast from the centre.
func denseConfig(grid *topology.Grid, seed uint64) core.Config {
	return core.Config{Topo: grid, P: 0.5, TTL: 255, MaxRounds: 1 << 30, Seed: seed}
}

const denseSide = 64

// meshDense runs back-to-back centre broadcasts, each core.New + Inject
// + Step until Quiescent, the seed advancing per broadcast.
type meshDense struct {
	grid   *topology.Grid
	seeds  func(i int) uint64
	ref    simStats // broadcast 0
	digest string
}

// broadcast runs broadcast i to quiescence or until stop reports true
// (checked between rounds), appending one latency per round to lat.
func (w *meshDense) broadcast(i int, tr *Tracer, lat *[]float64, stop func() bool) (st simStats, finished bool, err error) {
	id := strconv.Itoa(i)
	root := tr.Begin("broadcast", id, -1)
	defer tr.End(root)
	sp := tr.Begin("core.New", id, root)
	n, err := core.New(denseConfig(w.grid, w.seeds(i)))
	tr.End(sp)
	if err != nil {
		return st, false, err
	}
	centre := w.grid.ID(denseSide/2, denseSide/2)
	sp = tr.Begin("core.Inject", id, root)
	_, err = n.Inject(centre, packet.Broadcast, 0, make([]byte, 16))
	tr.End(sp)
	if err != nil {
		return st, false, err
	}
	for n.Round() == 0 || !n.Quiescent() {
		if stop != nil && stop() {
			return statsOf(n), false, nil
		}
		t0 := time.Now()
		sp = tr.Begin("core.Step", id, root)
		n.Step()
		tr.End(sp)
		if lat != nil {
			*lat = append(*lat, msSince(t0))
		}
	}
	return statsOf(n), true, nil
}

func (w *meshDense) Setup(e *env) error {
	w.grid = topology.NewGrid(denseSide, denseSide)
	base := e.stream(3).Uint64()
	w.seeds = func(i int) uint64 { return base + uint64(i) }
	ref, _, err := w.broadcast(0, nil, nil, nil)
	if err != nil {
		return fmt.Errorf("mesh_dense reference broadcast: %w", err)
	}
	w.ref = ref
	w.digest = digestOf(ref)
	return nil
}

func (w *meshDense) Run(window time.Duration, tr *Tracer) repResult {
	var r repResult
	start := time.Now()
	deadline := start.Add(window)
	stop := func() bool { return time.Now().After(deadline) }
	for i := 0; !stop(); i++ {
		st, finished, err := w.broadcast(i, tr, &r.latMs, stop)
		if !finished && err == nil {
			break // window ended mid-broadcast; its rounds still count
		}
		r.attempted++
		switch {
		case err != nil:
			r.fail("broadcast %d: %v", i, err)
		case i == 0 && st != w.ref:
			r.fail("broadcast 0 re-run differs: %+v vs %+v", st, w.ref)
		case st.Counters.Deliveries != denseSide*denseSide-1:
			r.fail("broadcast %d reached %d tiles", i, st.Counters.Deliveries)
		}
	}
	// Construction is inside the elapsed time: rounds per host second
	// as a user stepping fresh networks sees it.
	r.rate = float64(len(r.latMs)) / time.Since(start).Seconds()
	if r.attempted == 0 {
		r.attempted = 1 // a window shorter than one broadcast still stepped rounds
	}
	return r
}

func (w *meshDense) Digest() string { return w.digest }
func (w *meshDense) Teardown()      {}

const (
	sparseSide     = 512
	sparsePerRound = 4
	// sparseCheckRound is where a run's counters are compared with the
	// reference: past 2xTTL, so the live population is in steady state.
	sparseCheckRound = 48
)

// sparseConfig is the mesh_sparse fabric, also used by the sparse
// micro-kernels: 512x512, p = 0.5, TTL 16, Recycle on.
func sparseConfig(grid *topology.Grid, seed uint64) core.Config {
	cfg := core.Config{Topo: grid, P: 0.5, TTL: 16, MaxRounds: 1 << 30, Seed: seed}
	setKnob(&cfg, knobRecycle, true)
	return cfg
}

// sparseRound injects the round's broadcasts at tiles drawn from src
// and steps once.
func sparseRound(n *core.Network, src *rng.Stream, tiles int) error {
	for k := 0; k < sparsePerRound; k++ {
		if _, err := n.Inject(packet.TileID(src.Intn(tiles)), packet.Broadcast, 0, nil); err != nil {
			return err
		}
	}
	n.Step()
	return nil
}

// meshSparse steps one 512x512 network for the whole window, injecting
// four broadcasts per round at seed-derived tiles.
type meshSparse struct {
	e      *env
	seed   uint64
	ref    simStats // at sparseCheckRound
	digest string
}

func (w *meshSparse) sources() *rng.Stream { return w.e.stream(5) }

func (w *meshSparse) Setup(e *env) error {
	w.e = e
	w.seed = e.stream(4).Uint64()
	grid := topology.NewGrid(sparseSide, sparseSide)
	n, err := mustNew(sparseConfig(grid, w.seed), "512x512")
	if err != nil {
		return err
	}
	src := w.sources()
	for n.Round() < sparseCheckRound {
		if err := sparseRound(n, src, grid.Tiles()); err != nil {
			return fmt.Errorf("mesh_sparse reference run: %w", err)
		}
	}
	w.ref = statsOf(n)
	w.digest = digestOf(w.ref, n.Mem().Live)
	// Drop the reference network before the measured one is built, so
	// peak RSS is one network and not two.
	n = nil
	runtime.GC()
	return nil
}

func (w *meshSparse) Run(window time.Duration, tr *Tracer) repResult {
	var r repResult
	start := time.Now()
	deadline := start.Add(window)
	root := tr.Begin("run", "0", -1)
	defer tr.End(root)
	// Construction is inside the window: users pay it.
	sp := tr.Begin("topology.NewGrid", "0", root)
	grid := topology.NewGrid(sparseSide, sparseSide)
	tr.End(sp)
	sp = tr.Begin("core.New", "0", root)
	n, err := mustNew(sparseConfig(grid, w.seed), "512x512")
	tr.End(sp)
	r.attempted = 1
	if err != nil {
		r.fail("%v", err)
		return r
	}
	src := w.sources()
	tiles := grid.Tiles()
	for n.Round() == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		sp = tr.Begin("inject+core.Step", strconv.Itoa(n.Round()), root)
		err := sparseRound(n, src, tiles)
		tr.End(sp)
		if err != nil {
			r.fail("round %d: %v", n.Round(), err)
			break
		}
		r.latMs = append(r.latMs, msSince(t0))
		if n.Round() == sparseCheckRound {
			r.attempted++
			if st := statsOf(n); st != w.ref {
				r.fail("re-run differs at round %d: %+v vs %+v", sparseCheckRound, st, w.ref)
			}
		}
	}
	r.rate = float64(n.Round()) / time.Since(start).Seconds()
	mem := n.Mem()
	r.layer = map[string]float64{
		"core.table_bytes_per_tile.sparse": float64(mem.TableBytes) / float64(tiles),
		"core.live_msgs.sparse":            float64(mem.Live),
	}
	return r
}

func (w *meshSparse) Digest() string { return w.digest }
func (w *meshSparse) Teardown()      {}
