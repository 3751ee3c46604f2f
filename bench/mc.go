package main

import (
	"fmt"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/topology"
)

// The Fig. 4-5 grid mc_paper sweeps: 3 dead-tile counts x 4 upset
// rates x 4 replicas = 48 replicas per sweep.
var (
	fig45Dead     = []int{0, 2, 4}
	fig45Upsets   = []float64{0, 0.3, 0.6, 0.9}
	fig45Replicas = 4
)

// mcPaper repeats experiments.Fig45 sweeps, the master seed advancing
// per sweep.
type mcPaper struct {
	e      *env
	seeds  func(i int) uint64
	ref    []experiments.Fig45Cell // sweep 0 at Workers = 1
	digest string
}

func (w *mcPaper) sweep(i, workers int) ([]experiments.Fig45Cell, error) {
	return experiments.Fig45(fig45Dead, fig45Upsets,
		sim.Config{Replicas: fig45Replicas, Workers: workers, Seed: w.seeds(i)})
}

func (w *mcPaper) Setup(e *env) error {
	w.e = e
	base := e.stream(1).Uint64()
	w.seeds = func(i int) uint64 { return base + uint64(i) }
	ref, err := w.sweep(0, 1)
	if err != nil {
		return fmt.Errorf("mc_paper reference sweep: %w", err)
	}
	w.ref = ref
	w.digest = digestOf(ref)
	return nil
}

func (w *mcPaper) Run(window time.Duration, tr *Tracer) repResult {
	var r repResult
	perSweep := len(fig45Dead) * len(fig45Upsets) * fig45Replicas
	start := time.Now()
	deadline := start.Add(window)
	sweeps := 0
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		// One opaque span per sweep: the replica bodies live inside
		// internal/experiments, out of the benchmark's reach.
		sp := tr.Begin("experiments.Fig45", strconv.Itoa(i), -1)
		cells, err := w.sweep(i, w.e.nproc)
		tr.End(sp)
		r.latMs = append(r.latMs, msSince(t0))
		r.attempted++
		switch {
		case err != nil:
			r.fail("sweep %d: %v", i, err)
		case i == 0 && !reflect.DeepEqual(cells, w.ref):
			r.fail("sweep 0 differs between Workers=1 and Workers=%d", w.e.nproc)
		case len(cells) != len(fig45Dead)*len(fig45Upsets):
			r.fail("sweep %d: %d cells", i, len(cells))
		default:
			sweeps++
		}
	}
	r.rate = float64(sweeps*perSweep) / time.Since(start).Seconds()
	return r
}

func (w *mcPaper) Digest() string { return w.digest }
func (w *mcPaper) Teardown()      {}

// smcVerdict repeats smc.Check of one property on a 16x16 broadcast
// model, the master seed advancing per verdict.
type smcVerdict struct {
	e      *env
	prop   smc.Property
	model  smc.Model
	seeds  func(i int) uint64
	ref    smc.Report // verdict 0 at Workers = 1
	digest string
}

const smcProperty = "aware(0.95) within 48"

// smcModel is the checked system, shared with the smc micro-kernels.
func smcModel() smc.Model {
	grid := topology.NewGrid(16, 16)
	return smc.BroadcastModel(core.Config{Topo: grid, P: 0.5, TTL: 64}, grid.ID(8, 8), energy.NoCLink025)
}

func (w *smcVerdict) check(i, workers int, replica smc.Replica) (smc.Report, error) {
	return smc.Check(w.prop, replica, smc.CheckConfig{
		Theta: 0.9, Delta: 0.02, Workers: workers, Seed: w.seeds(i),
	})
}

func (w *smcVerdict) Setup(e *env) error {
	w.e = e
	prop, err := smc.Parse(smcProperty)
	if err != nil {
		return fmt.Errorf("smc_verdict property: %w", err)
	}
	w.prop, w.model = prop, smcModel()
	base := e.stream(2).Uint64()
	w.seeds = func(i int) uint64 { return base + uint64(i) }
	w.ref, err = w.check(0, 1, w.model.Replica(prop))
	if err != nil {
		return fmt.Errorf("smc_verdict reference check: %w", err)
	}
	w.digest = digestOf(w.ref)
	return nil
}

func (w *smcVerdict) Run(window time.Duration, tr *Tracer) repResult {
	var r repResult
	inner := w.model.Replica(w.prop)
	var simulated atomic.Int64
	var parent atomic.Int64 // span index of the running smc.Check
	// The Replica handed to Check is wrapped so every simulated replica
	// is counted (Report.Replicas counts only those the SPRT consumed)
	// and, when tracing, is a child span of its smc.Check: Check's self
	// time is then wave barriers plus the SPRT.
	replica := func(idx int, seed uint64) (bool, error) {
		simulated.Add(1)
		sp := tr.Begin("smc.replica", strconv.Itoa(idx), int(parent.Load()))
		ok, err := inner(idx, seed)
		tr.End(sp)
		return ok, err
	}
	start := time.Now()
	deadline := start.Add(window)
	verdicts, consumed := 0, 0
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		sp := tr.Begin("smc.Check", strconv.Itoa(i), -1)
		parent.Store(int64(sp))
		rep, err := w.check(i, w.e.nproc, replica)
		tr.End(sp)
		r.latMs = append(r.latMs, msSince(t0))
		r.attempted++
		switch {
		case err != nil:
			r.fail("verdict %d: %v", i, err)
		case i == 0 && rep != w.ref:
			r.fail("verdict 0 differs between Workers=1 and Workers=%d: %v vs %v", w.e.nproc, rep, w.ref)
		case rep.Verdict == smc.Undecided:
			r.fail("verdict %d undecided after %d replicas", i, rep.Replicas)
		default:
			verdicts++
			consumed += rep.Replicas
		}
	}
	elapsed := time.Since(start).Seconds()
	r.rate = float64(verdicts) / elapsed
	sims := float64(simulated.Load())
	r.layer = map[string]float64{"smc.replicas_per_s": sims / elapsed}
	if verdicts > 0 && sims > 0 {
		r.layer["smc.replicas_per_verdict"] = float64(consumed) / float64(verdicts)
		r.layer["smc.wasted_replica_frac"] = (sims - float64(consumed)) / sims
	}
	return r
}

func (w *smcVerdict) Digest() string { return w.digest }
func (w *smcVerdict) Teardown()      {}

// msSince is the time since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }
