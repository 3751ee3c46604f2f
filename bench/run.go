package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// The end-to-end metrics: the two every workload can report steadily
// enough to be gated by a bound (README, "Why only two metrics are
// gated"). BENCHMARK.json declares exactly these; the smoke test keeps
// the two in step.
const (
	mSetup = "setup_s"
	mRSS   = "peak_rss_mb"
)

var endToEndUnits = map[string]string{mSetup: "s", mRSS: "MB"}

// The host-time metrics of a workload's operations. An untraced run
// prints them (and hands them to the suite on its "timings" line)
// without their being part of the driver-facing result; a traced run
// reports them, from its untraced window, among the per-layer metrics.
const (
	mRate    = "ops_per_s"
	mP50     = "op_p50_ms"
	mP95     = "op_p95_ms"
	mP99     = "op_p99_ms"
	mSamples = "op_samples"
)

// timingNames lists them in print order.
var timingNames = []string{mRate, mP50, mP95, mP99, mSamples}

// perLayerUnits maps every per-layer metric to its unit. A traced run
// reports all of them: micro-kernels are measured every time, and
// values drawn from the workload's own spans and server counters are 0
// on workloads whose path does not touch that layer.
var perLayerUnits = map[string]string{
	"rng.uint64_ns": "ns", "rng.boolt_ns": "ns", "rng.geomskip_ns": "ns", "rng.split_ns": "ns",
	"topology.newgrid_ms.512x512": "ms",
	"core.new_us.8x8":             "us", "core.new_ms.64x64": "ms", "core.new_ms.512x512": "ms", "core.inject_ns": "ns",
	"core.step_us.8x8": "us", "core.step_ms.dense": "ms", "core.step_ms.sparse": "ms",
	"core.ns_per_tx.dense": "ns", "core.ns_per_tx.sparse": "ns",
	"core.allocs_per_round.dense": "count", "core.allocs_per_round.sparse": "count",
	"core.alloc_bytes_per_round.dense": "B", "core.alloc_bytes_per_round.sparse": "B",
	"core.table_bytes_per_tile.sparse": "B", "core.live_msgs.sparse": "count",
	"core.step_ms.dense_sharded": "ms", "core.shard_speedup": "x",
	"core.step_ms.lowp": "ms", "core.step_ms.lowp_batch": "ms", "core.batch_speedup": "x",
	"core.step_us.literal":   "us",
	"core.snapshot_ms.64x64": "ms", "core.restore_ms.64x64": "ms", "core.snapshot_bytes.64x64": "B",
	"sim.ckpt_save_ms.64x64": "ms", "sim.ckpt_load_ms.64x64": "ms",
	"sim.dispatch_ns_per_replica": "ns", "sim.worker_util": "ratio", "sim.loop_overhead_pct": "%",
	"metrics.recorder_overhead_pct.8x8": "%", "metrics.recorder_overhead_pct.dense": "%",
	"metrics.roundline_ns": "ns", "metrics.series_us": "us",
	"smc.parse_ns": "ns", "smc.eval_ns": "ns", "smc.sprt_add_ns": "ns", "smc.model_run_us.16x16": "us",
	"smc.replicas_per_verdict": "count", "smc.wasted_replica_frac": "ratio",
	"smc.replicas_per_s": "1/s", "smc.check_self_pct": "%",
	"service.submit_ms.p50": "ms", "service.first_event_ms.p50": "ms",
	"service.stream_ms.p50": "ms", "service.result_ms.p50": "ms",
	"service.cache_get_us": "us", "service.cache_put_us": "us",
	"service.lat_cold_ms.p50": "ms", "service.lat_hit_ms.p50": "ms", "service.lat_dedup_ms.p50": "ms",
	"service.preempt_to_yield_ms.p50": "ms", "service.resume_to_done_ms.p50": "ms",
	"service.gen_late_ms.max": "ms",
	"service.simulations":     "count", "service.cache_hits": "count", "service.deduped": "count",
	"service.preemptions": "count", "service.resumes": "count", "service.rejected": "count",
	"service.hit_ratio": "ratio", "service.preempts_per_batch_job": "ratio",
	"service.server_rss_mb": "MB",
	mRate:                   "1/s", mP50: "ms", mP95: "ms", mP99: "ms", mSamples: "count",
	"trace.overhead_pct": "%",
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a workload run prints: exactly the keys the
// driver's contract names.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// defaultReps is how many times a run repeats set-up plus a measuring
// window; rates and set-up times are reported as the median of the
// repetitions, which shrugs off the one or two windows a noisy host
// disturbs.
const defaultReps = 5

// prober is implemented by workloads that can measure extra per-layer
// values against what Setup started (the serving workloads' daemon).
// It runs after the traced window.
type prober interface {
	Probe() map[string]float64
}

// runOpts selects one workload run.
type runOpts struct {
	root    string
	name    string
	seed    uint64
	seconds float64 // total measuring time: reps windows of seconds/reps each
	reps    int     // defaultReps everywhere but the smoke test
	trace   bool
	record  bool      // rewrite this workload's entry of bench/expected.json
	log     io.Writer // human-readable progress and detail
}

// run is the state of one workload run.
type run struct {
	o       runOpts
	spec    workloadSpec
	window  time.Duration
	res     Result
	digests []string // one per repetition
}

// runWorkload performs one run of one workload — the unit the driver
// invokes and the suite repeats — and returns its result line.
func runWorkload(o runOpts) (Result, error) {
	spec, ok := findWorkload(o.name)
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q", o.name)
	}
	if err := os.MkdirAll(buildDir(o.root), 0o755); err != nil {
		return Result{}, fmt.Errorf("build dir: %w", err)
	}
	r := &run{o: o, spec: spec, res: Result{Metrics: map[string]Metric{}},
		window: time.Duration(o.seconds / float64(o.reps) * float64(time.Second))}
	measure := r.untraced
	if o.trace {
		measure = r.traced
	}
	if err := measure(); err != nil {
		return r.res, err
	}
	for _, d := range r.digests[1:] {
		r.res.Attempted++
		if d != r.digests[0] {
			r.res.Failed++
			fmt.Fprintf(o.log, "  FAILED: simulated-statistics digest differs between repetitions: %s vs %s\n", d, r.digests[0])
		}
	}
	if err := checkExpected(o, r.digests[0], &r.res); err != nil {
		return r.res, err
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// oneRep sets a fresh workload up, hands it to measure, and tears it
// down; it returns the set-up time.
func (r *run) oneRep(rep int, measure func(w workload)) (float64, error) {
	w := r.spec.make()
	defer w.Teardown()
	// Start every repetition from a collected heap: what the previous
	// one left behind would otherwise be swept during this one's set-up
	// and make its time (and peak RSS) a coin toss.
	runtime.GC()
	t0 := time.Now()
	if err := w.Setup(&env{root: r.o.root, seed: r.o.seed, nproc: runtime.GOMAXPROCS(0), rep: rep}); err != nil {
		return 0, err
	}
	setup := time.Since(t0).Seconds()
	r.digests = append(r.digests, w.Digest())
	measure(w)
	return setup, nil
}

// tally adds one window's operation counts to the result.
func (r *run) tally(rr *repResult) {
	r.res.Attempted += rr.attempted
	r.res.Failed += rr.failed
	for _, f := range rr.failures {
		fmt.Fprintf(r.o.log, "  FAILED: %s\n", f)
	}
}

// timings derives the host-time metrics from the windows' rates and
// their pooled latencies: the median window rate, the nearest-rank
// median latency, and the p95/p99 tails where at least ten samples lie
// beyond them (0 otherwise).
func timings(rates, latMs []float64) map[string]float64 {
	lat := sortedCopy(latMs)
	t := map[string]float64{mRate: median(rates), mP50: percentile(lat, 50), mSamples: float64(len(lat))}
	for p, name := range map[float64]string{95: mP95, 99: mP99} {
		if samplesBeyond(len(lat), p) >= 10 {
			t[name] = percentile(lat, p)
		}
	}
	return t
}

// untraced measures the end-to-end metrics — and the timings beside
// them: o.reps repetitions of set-up plus one window, tracing off.
func (r *run) untraced() error {
	var setups, rates, rss, lat []float64
	for rep := 0; rep < r.o.reps; rep++ {
		setup, err := r.oneRep(rep, func(w workload) {
			rr := w.Run(r.window, nil)
			r.tally(&rr)
			rates = append(rates, rr.rate)
			rss = append(rss, rr.rssMB)
			lat = append(lat, rr.latMs...)
		})
		if err != nil {
			return err
		}
		setups = append(setups, setup)
	}
	peak := median(rss)
	if !r.spec.serverSide {
		peak = peakRSSMB(os.Getpid())
	}
	r.res.Metrics[mSetup] = Metric{median(setups), endToEndUnits[mSetup]}
	r.res.Metrics[mRSS] = Metric{peak, endToEndUnits[mRSS]}

	log, t := r.o.log, timings(rates, lat)
	fmt.Fprintf(log, "  %-12s %12.4f s     spread %4.1f%% over %d set-ups\n", mSetup, median(setups), 100*rangeSpread(setups), len(setups))
	fmt.Fprintf(log, "  %-12s %12.4f MB\n", mRSS, peak)
	fmt.Fprintf(log, "  %-12s %12.4f 1/s   spread %4.1f%% over %d windows  (%s)\n", mRate, t[mRate], 100*rangeSpread(rates), len(rates), r.spec.rateAlias)
	fmt.Fprintf(log, "  %-12s %12.4f ms    n=%d; highest percentile with ten samples beyond it: p%g  (%s)\n",
		mP50, t[mP50], len(lat), highestSupported(len(lat)), r.spec.latAlias)
	fmt.Fprintf(log, "  %-12s %12.4f ms    %d beyond\n", mP95, t[mP95], samplesBeyond(len(lat), 95))
	fmt.Fprintf(log, "  %-12s %12.4f ms    %d beyond\n", mP99, t[mP99], samplesBeyond(len(lat), 99))
	info := map[string]Metric{}
	for _, name := range timingNames {
		info[name] = Metric{t[name], perLayerUnits[name]}
	}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "%s%s\n", timingsPrefix, line)
	return nil
}

// timingsPrefix introduces the line on which an untraced run hands its
// timings to the suite.
const timingsPrefix = "timings "

// spanMetrics maps the per-layer metrics that are the median duration
// of a client-side span onto that span's name.
var spanMetrics = map[string]string{
	"service.submit_ms.p50": "service.submit", "service.first_event_ms.p50": "service.first_event",
	"service.stream_ms.p50": "service.stream", "service.result_ms.p50": "service.result",
}

// traced measures the per-layer metrics: one set-up, then the same
// window untraced and traced — the difference is the tracing overhead,
// and the untraced one supplies the timings — then the micro-kernels.
func (r *run) traced() error {
	layer := map[string]float64{}
	tr := newTracer()
	_, err := r.oneRep(0, func(w workload) {
		plain := w.Run(r.window, nil)
		r.tally(&plain)
		traced := w.Run(r.window, tr)
		r.tally(&traced)
		for k, v := range traced.layer {
			layer[k] = v
		}
		if plain.rate > 0 {
			layer["trace.overhead_pct"] = (1 - traced.rate/plain.rate) * 100
		}
		for k, v := range timings([]float64{plain.rate}, plain.latMs) {
			layer[k] = v
		}
		if r.spec.serverSide {
			layer["service.server_rss_mb"] = traced.rssMB
		}
		if p, ok := w.(prober); ok {
			for k, v := range p.Probe() {
				layer[k] = v
			}
		}
	})
	if err != nil {
		return err
	}
	spans, log := tr.Spans(), r.o.log
	for name, span := range spanMetrics {
		layer[name] = percentile(sortedCopy(durationsMs(spans, span)), 50)
	}
	fmt.Fprintf(log, "  %-22s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, s := range summarize(spans) {
		fmt.Fprintf(log, "  %-22s %8d %12.2f %12.2f\n", s.Name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6)
		if s.Name == "smc.Check" && s.TotalNs > 0 {
			layer["smc.check_self_pct"] = 100 * float64(s.SelfNs) / float64(s.TotalNs)
		}
	}
	path, err := writeTrace(r.o.root, r.o.name, spans)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "  %d spans written to %s\n", len(spans), path)

	kernels, err := runKernels(r.o.root, runtime.GOMAXPROCS(0), kernelScale(r.o.seconds))
	if err != nil {
		return fmt.Errorf("micro-kernels: %w", err)
	}
	for k, v := range kernels {
		if _, measuredByRun := layer[k]; !measuredByRun {
			layer[k] = v
		}
	}
	for _, name := range sortedKeys(perLayerUnits) {
		r.res.Metrics[name] = Metric{layer[name], perLayerUnits[name]}
		fmt.Fprintf(log, "  %-36s %14.4f %s\n", name, layer[name], perLayerUnits[name])
	}
	return nil
}

// kernelScale shrinks the micro-kernels' iteration counts in
// proportion for runs shorter than ten seconds, so the smoke test stays
// fast; real runs get the full counts.
func kernelScale(seconds float64) float64 {
	return min(1, seconds/10)
}
