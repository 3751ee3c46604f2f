package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifest is the part of /BENCHMARK.json, the declaration the driver
// reads, that the benchmark itself consults.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// runSelfcheck does what the driver does before it accepts the
// benchmark: two sets (A, then B) of runs runs per workload on the same
// code, each run under another seed, for BENCHMARK.json's run_seconds.
// It passes if, for every end-to-end metric x workload, the IQR/median
// spread of each set stays within the metric's bound (setup_s exempt)
// and B's median is not worse than A's by more than the bound. Both
// sets are written to bench/results/.
func runSelfcheck(root string, seed uint64, runs int) (bool, error) {
	m, err := readManifest(root)
	if err != nil {
		return false, err
	}
	var sets [2]*resultSet
	for i, name := range []string{"A", "B"} {
		fmt.Printf("#### selfcheck set %s ####\n", name)
		sets[i], err = runSuite(suiteOpts{root: root, seed: seed, seconds: float64(m.RunSeconds), runs: runs})
		if err != nil {
			return false, err
		}
		path := filepath.Join(root, "bench", "results", "selfcheck-"+name+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return false, err
		}
		if err := sets[i].write(path); err != nil {
			return false, err
		}
	}
	ok := !sets[0].failed() && !sets[1].failed()
	fmt.Printf("\n%-13s %-12s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound")
	for _, w := range workloads {
		for _, em := range m.EndToEnd {
			verdict := judge(em, sets[0].values(w.name, em.Name), sets[1].values(w.name, em.Name))
			fmt.Printf("%-13s %-12s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n", w.name, em.Name,
				verdict.medA, verdict.medB, 100*verdict.worse, 100*verdict.spreadA, 100*verdict.spreadB, 100*em.Bound, verdict.text)
			ok = ok && verdict.ok
		}
	}
	return ok, nil
}

// selfVerdict is the judgement of one metric x workload pair.
type selfVerdict struct {
	medA, medB, worse, spreadA, spreadB float64
	ok                                  bool
	text                                string
}

// judge applies the driver's acceptance rule to one pair's two sets.
func judge(m manifestMetric, a, b []float64) selfVerdict {
	v := selfVerdict{medA: median(a), medB: median(b), spreadA: iqrSpread(a), spreadB: iqrSpread(b), ok: true, text: "ok"}
	if v.medA != 0 {
		v.worse = (v.medB - v.medA) / v.medA // positive = B worse, for lower-is-better
		if m.Better == "higher" {
			v.worse = -v.worse
		}
	}
	switch {
	case len(a) < 2 || len(b) < 2:
		v.ok, v.text = false, "too few runs"
	case v.medA == 0 || v.medB == 0:
		v.ok, v.text = false, "metric reads 0"
	case v.worse > m.Bound:
		v.ok, v.text = false, "B worse than A beyond the bound"
	case m.Name != mSetup && (v.spreadA > m.Bound || v.spreadB > m.Bound):
		v.ok, v.text = false, "spread beyond the bound"
	case m.Name != mSetup && (v.spreadA > m.Bound/3 || v.spreadB > m.Bound/3):
		v.text = "ok (spread above a third of the bound)"
	}
	return v
}
