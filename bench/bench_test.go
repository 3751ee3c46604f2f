package main

import (
	"io"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// These tests assert no timing: they must hold on any core count,
// under -race, and on a loaded machine.

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 95, 5}, {200, 95, 10}, {1000, 99, 10}, {999, 99, 9}, {20, 50, 10}, {0, 50, 0}} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

// Reference values from Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrSpread(1..10) = %g, want 1", got)
	}
	if got := rangeSpread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("rangeSpread = %g, want 0.3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{Name: "check", Start: 0, End: 100, Parent: -1},   // 0
		{Name: "replica", Start: 10, End: 40, Parent: 0},  // 1: overlaps 2 (parallel workers)
		{Name: "replica", Start: 30, End: 60, Parent: 0},  // 2
		{Name: "replica", Start: 80, End: 120, Parent: 0}, // 3: runs past its parent; clipped at 100
		{Name: "leaf", Start: 35, End: 45, Parent: 2},     // 4
		{Name: "other", Start: 200, End: 250, Parent: -1}, // 5: childless
	}
	// Children of 0 cover [10,60) and [80,100): 70 of 100.
	want := []int64{30, 30, 20, 40, 10, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	sum := summarize(spans)
	if len(sum) != 4 || sum[1].Name != "replica" || sum[1].Count != 3 || sum[1].TotalNs != 100 || sum[1].SelfNs != 90 {
		t.Errorf("summarize = %+v", sum)
	}
}

func TestTracerNilAndConcurrent(t *testing.T) {
	var off *Tracer
	off.End(off.Begin("x", "1", -1)) // a nil tracer records nothing and does not panic
	if off.Add("x", "1", time.Now(), time.Now(), -1) != -1 || off.Spans() != nil {
		t.Error("nil tracer recorded something")
	}
	tr := newTracer()
	root := tr.Begin("root", "r", -1)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.End(tr.Begin("child", "c", root))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 401 {
		t.Fatalf("%d spans, want 401", len(spans))
	}
	for i, s := range spans {
		if s.End < s.Start || (i > 0 && s.Parent != root) {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
}

func TestMixedScheduleDeterministicInSeed(t *testing.T) {
	gen := func(seed uint64) []arrival {
		return mixedSchedule(rng.New(seed).Split(8), 1<<40, 4*time.Second)
	}
	a, b := gen(2003), gen(2003)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, gen(2004)) {
		t.Fatal("different seeds produced the same schedule")
	}
	if n := len(a); n < 120 || n > 280 { // 50/s x 4 s = 200 expected, sd ~14
		t.Fatalf("%d arrivals in 4 s at 50/s", n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].due < a[j].due }) {
		t.Fatal("arrivals out of order")
	}
	seen := map[uint64]bool{}
	repeats := 0
	for i, x := range a {
		if x.due < 0 || x.due >= 4*time.Second {
			t.Fatalf("arrival %d due at %v, outside the window", i, x.due)
		}
		if x.repeat {
			repeats++
			if !seen[x.seed] {
				t.Fatalf("arrival %d repeats seed %d, which no earlier arrival used", i, x.seed)
			}
		} else if seen[x.seed] {
			t.Fatalf("arrival %d reuses seed %d without being marked a repeat", i, x.seed)
		}
		seen[x.seed] = true
	}
	if f := float64(repeats) / float64(len(a)); f < 0.3 || f > 0.7 {
		t.Fatalf("repeat share %.2f, want about half", f)
	}
}

func TestSetKnobByName(t *testing.T) {
	var cfg core.Config
	// Whatever knobs core.Config has today, setting one that exists must
	// take effect and setting one that does not must be a recorded no-op.
	if f := reflect.ValueOf(&cfg).Elem().FieldByName(knobRecycle); f.IsValid() {
		if !setKnob(&cfg, knobRecycle, true) || !f.Bool() {
			t.Errorf("%s exists but was not set", knobRecycle)
		}
	}
	type lacksKnobs struct {
		Shards int
		Name   string
		hidden bool
	}
	var s lacksKnobs
	v := reflect.ValueOf(&s).Elem()
	if !setField(v, "Shards", 4) || s.Shards != 4 {
		t.Error("present int field not set")
	}
	for name, val := range map[string]any{"NoSuchKnob": true, "Name": 3.5, "hidden": true} {
		if setField(v, name, val) {
			t.Errorf("setField(%s) reported success", name)
		}
	}
	absent := absentKnobs()
	for _, name := range []string{"NoSuchKnob", "Name", "hidden"} {
		if i := sort.SearchStrings(absent, name); i == len(absent) || absent[i] != name {
			t.Errorf("%s not recorded as absent: %v", name, absent)
		}
	}
	if i := sort.SearchStrings(absent, "Shards"); i < len(absent) && absent[i] == "Shards" {
		t.Error("Shards recorded as absent although it was set")
	}
}

func TestDigestStability(t *testing.T) {
	if digestOf(1, "a", 2.5) != digestOf(1, "a", 2.5) {
		t.Error("digestOf is not a function of its input")
	}
	if digestOf(1, "a") == digestOf(1, "b") {
		t.Error("digestOf ignores its input")
	}
	setup := func(seed uint64) string {
		w := &mcPaper{}
		if err := w.Setup(&env{seed: seed, nproc: 2}); err != nil {
			t.Fatal(err)
		}
		return w.Digest()
	}
	a := setup(defaultSeed)
	if b := setup(defaultSeed); a != b {
		t.Errorf("mc_paper digest changed between two set-ups of one seed: %s, %s", a, b)
	}
	if c := setup(defaultSeed + 1); a == c {
		t.Error("mc_paper digest does not depend on the seed")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "hit", "--seed", "7", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "hit", "--seed", "7", "--seconds", "10", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-workload", "x"}); !reflect.DeepEqual(got, []string{"-trace", "-workload", "x"}) {
		t.Errorf("bare -trace rewritten: %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := manifestMetric{Name: mP50, Better: "lower", Bound: 0.1}
	higher := manifestMetric{Name: mRate, Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102}
	if v := judge(lower, steady, steady); !v.ok {
		t.Errorf("identical sets rejected: %+v", v)
	}
	slow := []float64{120, 121, 119, 120, 122}
	if v := judge(lower, steady, slow); v.ok {
		t.Error("20% slower latency accepted under a 10% bound")
	}
	if v := judge(higher, steady, slow); !v.ok {
		t.Errorf("20%% higher throughput rejected: %+v", v)
	}
	if v := judge(higher, slow, steady); v.ok {
		t.Error("17% lower throughput accepted under a 10% bound")
	}
	noisy := []float64{60, 100, 140, 80, 120}
	if v := judge(lower, noisy, noisy); v.ok {
		t.Error("spread far beyond the bound accepted")
	}
	if v := judge(manifestMetric{Name: mSetup, Better: "lower", Bound: 0.1}, noisy, noisy); !v.ok {
		t.Errorf("setup_s spread must be exempt: %+v", v)
	}
}

// TestSmoke runs every workload, untraced and traced, with one 200 ms
// window each. It asserts only what must hold at any speed: no failed
// operation, and that the workload and metric names printed are exactly
// the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns nocsimd and builds 512x512 meshes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range m.Workloads {
		declared = append(declared, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", declared, have)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, e := range m.EndToEnd {
		want[false][e.Name] = e.Unit
	}
	for _, l := range m.PerLayer {
		want[true][l.Name] = l.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runOpts{root: root, name: w.name, seed: defaultSeed, seconds: 0.2, reps: 1, trace: trace, log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, correct %v", w.name, trace, res.Attempted, res.Failed, res.Correct)
			}
			got := map[string]string{}
			for name, v := range res.Metrics {
				got[name] = v.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace=%v: printed metrics differ from BENCHMARK.json\n got %v\nwant %v", w.name, trace, got, want[trace])
			}
		}
	}
}
