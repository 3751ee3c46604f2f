// Package sim is the Monte Carlo replica runner every figure of the
// evaluation sits on. Each figure is a statistic over N independent
// stochastic runs ("all of the results presented ... are averages
// obtained after several repeated simulations", §4.1); sim executes
// those replicas across a bounded worker pool and aggregates their
// metrics into package stats summaries.
//
// Determinism is the design constraint: the replica *index*, never the
// scheduling order, decides both the replica's seed and its slot in the
// result slice, so a run's aggregate output is bit-identical whether it
// executed on 1 worker or 64. Per-replica seeds derive from package
// rng's splittable streams — not from additive prime-multiplier offsets,
// whose arithmetic collisions across concurrently swept parameters this
// package exists to retire.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Config parameterizes one Monte Carlo run.
type Config struct {
	// Replicas is the number of independent replicas to execute (> 0).
	Replicas int
	// Workers bounds the worker pool; 0 defaults to runtime.GOMAXPROCS(0)
	// and 1 forces fully sequential in-goroutine execution.
	Workers int
	// Seed is the master seed. Per-replica seeds are derived from it by
	// stream splitting (see Seeds); replica r always sees the same seed
	// regardless of Workers.
	Seed uint64
}

// workers resolves the effective pool size.
func (c Config) workers() int {
	return min(PoolSize(c.Workers), c.Replicas)
}

// PoolSize is the worker count a Workers setting stands for, before Run
// caps it at the replica count: workers itself, or runtime.GOMAXPROCS(0)
// for 0 or less.
func PoolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Seeds returns the n per-replica seeds derived from the master seed.
// The sequence is prefix-stable: Seeds(m, n)[r] depends only on m and r,
// so growing a study keeps every already-run replica's seed.
func Seeds(master uint64, n int) []uint64 {
	root := rng.New(master)
	out := make([]uint64, n)
	for r := range out {
		out[r] = root.Split(uint64(r)).Uint64()
	}
	return out
}

// Run executes cfg.Replicas independent calls of body across the worker
// pool and returns their results in replica order. body receives the
// replica index and that replica's derived seed; it must not share
// mutable state with other replicas. Run is RunOffset's window at
// offset 0.
//
// Results are deterministic in (cfg.Replicas, cfg.Seed) alone: worker
// count and scheduling cannot change them. If any replica fails, Run
// reports the error of the lowest-indexed failing replica — again
// independent of scheduling — and discards the results.
func Run[T any](cfg Config, body func(replica int, seed uint64) (T, error)) ([]T, error) {
	return RunOffset(cfg, 0, body)
}

// RunOffset executes one window [offset, offset+cfg.Replicas) of a
// conceptually unbounded replica sequence across the worker pool: body
// receives global replica indices, and replica r's seed is the one
// Seeds(cfg.Seed, r+1)[r] would return — derivation is by absolute
// index, so the seed sequence is identical no matter how the caller
// slices the sequence into windows. Sequential verdict engines
// (smc.Check) are built on this: they consume replicas wave by wave,
// stopping as soon as a verdict settles, yet every replica they ever
// schedule has the same seed a single monolithic Run would have given
// it. Results arrive in window order with Run's determinism contract;
// an error names the lowest failing global index.
func RunOffset[T any](cfg Config, offset int, body func(replica int, seed uint64) (T, error)) ([]T, error) {
	n := cfg.Replicas
	if n <= 0 {
		return nil, fmt.Errorf("sim: Config.Replicas = %d, need > 0", n)
	}
	if offset < 0 {
		return nil, fmt.Errorf("sim: RunOffset offset = %d, need >= 0", offset)
	}
	root := rng.New(cfg.Seed)
	results := make([]T, n)
	errs := make([]error, n)
	one := func(r int) {
		g := offset + r
		results[r], errs[r] = body(g, root.Split(uint64(g)).Uint64())
	}

	if w := cfg.workers(); w == 1 {
		for r := 0; r < n; r++ {
			one(r)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					r := int(next.Add(1)) - 1
					if r >= n {
						return
					}
					one(r)
				}
			}()
		}
		wg.Wait()
	}

	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sim: replica %d: %w", offset+r, err)
		}
	}
	return results, nil
}

// RunMetrics runs a Metrics-producing body and aggregates the replicas'
// outcomes into summary statistics.
func RunMetrics(cfg Config, body func(replica int, seed uint64) (Metrics, error)) (Aggregate, error) {
	ms, err := Run(cfg, body)
	if err != nil {
		return Aggregate{}, err
	}
	return Summarize(ms), nil
}
