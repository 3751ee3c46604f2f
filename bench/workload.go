package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/rng"
)

// env is what one repetition of a workload is given: where the
// repository is, the workload seed (the only input to input
// generation), and how many clients or workers to use.
type env struct {
	root  string // repository root (holds go.mod and bench/)
	seed  uint64
	nproc int
	rep   int // repetition index, for naming scratch directories
}

// stream derives the workload's private random stream: every workload
// splits the same master seed under its own label, so adding a workload
// never shifts another's inputs.
func (e *env) stream(label uint64) *rng.Stream { return rng.New(e.seed).Split(label) }

// repResult is what one repetition measured.
type repResult struct {
	// rate is completed work per host second in the workload's unit
	// (see README, "Metrics"): closed loops sum each client's own
	// completions over its own elapsed time, so neither the nominal
	// window nor an idle tail enters.
	rate float64
	// latMs holds one latency per operation, in milliseconds.
	latMs []float64
	// attempted and failed count operations and output checks.
	attempted, failed int
	// failures describes the first few failed operations.
	failures []string
	// rssMB is the peak resident set of a spawned server, 0 when the
	// simulations ran in this process.
	rssMB float64
	// layer carries per-layer values only a run can supply (server
	// counter deltas, replica counts); keys are per_layer metric names.
	layer map[string]float64
}

// fail records one failed operation.
func (r *repResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one named benchmark workload. A fresh value serves each
// repetition: Setup generates the inputs from env.seed, starts what the
// workload needs, warms it up and produces the reference the output
// checks compare against; Run measures for about window; Teardown stops
// everything Setup started.
type workload interface {
	Setup(e *env) error
	Run(window time.Duration, tr *Tracer) repResult
	// Digest is a hash of simulated statistics produced during Setup —
	// deterministic in the seed, independent of host speed and core
	// count — compared with bench/expected.json for the default seed.
	Digest() string
	Teardown()
}

// workloadSpec declares a workload: its fixed name (BENCHMARK.json and
// the README say why each exists), the issue-level names of its
// throughput and latency so the suite can print them beside the generic
// metric names, and its constructor.
type workloadSpec struct {
	name       string
	rateAlias  string // what ops_per_s counts here
	latAlias   string // what op_p50_ms / op_p95_ms time here
	serverSide bool   // simulations run in a spawned nocsimd
	make       func() workload
}

var workloads = []workloadSpec{
	{"mc_paper", "replicas_per_s", "fig45_sweep", false, func() workload { return &mcPaper{} }},
	{"smc_verdict", "verdicts_per_s", "verdict", false, func() workload { return &smcVerdict{} }},
	{"mesh_dense", "rounds_per_s", "round", false, func() workload { return &meshDense{} }},
	{"mesh_sparse", "rounds_per_s", "round", false, func() workload { return &meshSparse{} }},
	{"serve_cold", "jobs_per_s", "job", true, func() workload { return &serveClosed{cached: false} }},
	{"serve_cached", "jobs_per_s", "job", true, func() workload { return &serveClosed{cached: true} }},
	{"serve_mixed", "batch_jobs_per_s", "interactive_job", true, func() workload { return &serveMixed{} }},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// digestOf hashes the printed form of simulated statistics. Printing
// with %v keeps it stable across Go versions for the integer and
// float64 fields hashed here.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
