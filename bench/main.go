// Command bench is the repository's benchmark: seven named workloads
// that each put a different layer of the stack (rng → core → metrics →
// sim → smc → service/nocsimd) on the critical path, the metrics a user
// sees measured with tracing off, and a traced run that yields per-layer
// numbers. See README.md beside this file; /BENCHMARK.json declares the
// names.
//
//	go run ./bench                      every workload, user-visible metrics
//	go run ./bench -trace               every workload, per-layer metrics + span files
//	go run ./bench -workload mesh_dense one workload
//	go run ./bench -selfcheck           two sets of runs judged by BENCHMARK.json's bounds
//	go run ./bench -record              rewrite bench/expected.json
//
// The driver's form, `-workload W -seed N -seconds S -trace 0|1`, runs
// one workload in this process and prints its result as the last line.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/core"
)

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		workloadF = fs.String("workload", "", "run only this workload, in this process")
		seed      = fs.Uint64("seed", defaultSeed, "workload seed: the only input to input generation")
		seconds   = fs.Float64("seconds", 18, "measuring time per workload run, split into five windows")
		trace     = fs.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
		runs      = fs.Int("runs", 1, "suite: runs per workload, with seeds seed, seed+1, ...")
		jsonOut   = fs.String("json", "", "suite: also write every run's result to this file")
		selfcheck = fs.Bool("selfcheck", false, "run the untraced suite twice and judge both sets by BENCHMARK.json's bounds")
		record    = fs.Bool("record", false, "rewrite bench/expected.json from this run (default seed only)")
	)
	fs.Parse(normalizeArgs(os.Args[1:]))

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	switch {
	case *workloadF != "":
		res, err := runWorkload(runOpts{root: root, name: *workloadF, seed: *seed, seconds: *seconds, reps: defaultReps,
			trace: *trace, record: *record, log: os.Stdout})
		if err != nil {
			fatal(err)
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s\n", line)
	case *selfcheck:
		if *runs < 2 {
			*runs = 10
		}
		ok, err := runSelfcheck(root, *seed, *runs)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		set, err := runSuite(suiteOpts{root: root, seed: *seed, seconds: *seconds, trace: *trace, runs: *runs, record: *record})
		if err != nil {
			fatal(err)
		}
		if *jsonOut != "" {
			if err := set.write(*jsonOut); err != nil {
				fatal(err)
			}
		}
		if set.failed() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// normalizeArgs lets the boolean -trace take the driver's separate
// value ("--trace 1"): Go's flag package would otherwise stop parsing
// at the stray "1".
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// findRoot locates the repository root — the directory whose go.mod
// declares module repro — from the working directory upward, so the
// benchmark runs from the root (`go run ./bench`, the driver) and from
// bench/ (`go test`).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(bytes.TrimSpace(raw), []byte("module repro")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro at or above the working directory")
		}
		dir = parent
	}
}

// runContext is recorded with every result set: numbers from different
// machines or core counts are not comparable.
type runContext struct {
	Nproc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Go          string   `json:"go"`
	CPU         string   `json:"cpu"`
	AbsentKnobs []string `json:"absent_knobs"`
}

func currentContext() runContext {
	var cfg core.Config
	setKnob(&cfg, knobRecycle, true)
	setKnob(&cfg, knobShards, 1)
	setKnob(&cfg, knobBatchDraws, true)
	return runContext{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), CPU: cpuModel(), AbsentKnobs: absentKnobs(),
	}
}

// suiteOpts selects a suite run: every workload, each in its own child
// process, runs times.
type suiteOpts struct {
	root    string
	seed    uint64
	seconds float64
	trace   bool
	runs    int
	record  bool
}

// resultSet is what a suite run produced, as committed under
// bench/results/.
type resultSet struct {
	Context runContext          `json:"context"`
	Seed    uint64              `json:"seed"`
	Seconds float64             `json:"seconds"`
	Trace   bool                `json:"trace"`
	Runs    map[string][]Result `json:"runs"`
	// Timings holds, per workload and untraced run, the host-time
	// metrics that are printed but not part of the gated result.
	Timings map[string][]map[string]Metric `json:"timings,omitempty"`
}

func (s *resultSet) failed() bool {
	for _, rs := range s.Runs {
		for _, r := range rs {
			if !r.Correct {
				return true
			}
		}
	}
	return false
}

func (s *resultSet) write(path string) error {
	raw, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// values returns the metric's value in each run of the workload,
// whether it is part of the result or one of the timings.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for i, r := range s.Runs[workload] {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		} else if i < len(s.Timings[workload]) {
			out = append(out, s.Timings[workload][i][metric].Value)
		}
	}
	return out
}

func runSuite(o suiteOpts) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Context: currentContext(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Runs: map[string][]Result{}, Timings: map[string][]map[string]Metric{}}
	ctx, _ := json.Marshal(set.Context)
	fmt.Printf("context %s\n", ctx)
	for _, w := range workloads {
		for i := 0; i < o.runs; i++ {
			seed := o.seed + uint64(i)
			fmt.Printf("== %s  seed %d  %g s  trace %v ==\n", w.name, seed, o.seconds, o.trace)
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
				fmt.Sprintf("-trace=%v", o.trace), fmt.Sprintf("-record=%v", o.record)}
			cmd := exec.Command(self, args...)
			cmd.Dir = o.root
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				os.Stdout.Write(out)
				return nil, fmt.Errorf("workload %s: %w", w.name, err)
			}
			detail, last := splitLastLine(out)
			for _, line := range bytes.SplitAfter(detail, []byte("\n")) {
				if rest, ok := bytes.CutPrefix(line, []byte(timingsPrefix)); ok {
					var t map[string]Metric
					if err := json.Unmarshal(rest, &t); err != nil {
						return nil, fmt.Errorf("workload %s: timings line: %w", w.name, err)
					}
					set.Timings[w.name] = append(set.Timings[w.name], t)
					continue
				}
				os.Stdout.Write(line)
			}
			var res Result
			if err := json.Unmarshal(last, &res); err != nil {
				return nil, fmt.Errorf("workload %s: result line: %w", w.name, err)
			}
			fmt.Printf("  attempted %d, failed %d\n", res.Attempted, res.Failed)
			set.Runs[w.name] = append(set.Runs[w.name], res)
		}
	}
	if !o.trace {
		printSummary(set)
	}
	return set, nil
}

// splitLastLine separates a child's human-readable detail from its
// final result line.
func splitLastLine(out []byte) (detail, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}

// printSummary prints, for every workload, the end-to-end metrics and
// the timings by name with their units — the median over the set's runs
// and, with two or more runs, their IQR/median spread.
func printSummary(set *resultSet) {
	fmt.Printf("\n%-13s %-12s %14s %-5s %8s  %s\n", "workload", "metric", "median", "unit", "spread", "measures")
	for _, w := range workloads {
		row := func(name, unit, note string) {
			v := set.values(w.name, name)
			spread := "-"
			if len(v) >= 2 {
				spread = fmt.Sprintf("%.1f%%", 100*iqrSpread(v))
			}
			fmt.Printf("%-13s %-12s %14.4f %-5s %8s  %s\n", w.name, name, median(v), unit, spread, note)
		}
		row(mSetup, endToEndUnits[mSetup], "end-to-end (gated)")
		row(mRSS, endToEndUnits[mRSS], "end-to-end (gated)")
		row(mRate, perLayerUnits[mRate], w.rateAlias)
		for _, name := range []string{mP50, mP95, mP99} {
			row(name, perLayerUnits[name], strings.Replace(name, "op", w.latAlias, 1))
		}
	}
}
