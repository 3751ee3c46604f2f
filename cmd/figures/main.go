// Command figures regenerates every figure of the thesis' evaluation and
// prints the corresponding tables. EXPERIMENTS.md records one full run.
//
// Usage:
//
//	figures [-fig all|3-1|3-3|4-4|4-5|4-6|4-8|4-9|4-10|4-11|5-3|smc]
//	        [-runs N] [-seed S] [-workers W] [-quick]
//	        [-metrics FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -quick shrinks sweep resolutions for a fast smoke run. -workers sets
// the Monte Carlo replica pool (0 = GOMAXPROCS); results are identical
// for every worker count — replicas are seeded by index, not by
// scheduling order.
//
// -fig smc runs the statistical-model-checking cross-validation
// (docs/SMC.md): SPRT verdicts against exactly known trajectory
// probabilities on complete meshes and small grids, plus the
// fixed-effort rare-event splitting estimate against the exact flood
// law. Replica counts are chosen by the SPRT itself, so the study is
// excluded from -fig all (whose output is diffed against
// figures_output.txt) and must be requested explicitly.
//
// -metrics FILE additionally runs the canonical instrumented broadcast
// (the Fig. 3-3 walkthrough on the 8×8 microbench mesh, -runs replicas)
// and writes its per-round cross-replica series — transmissions, CRC
// rejects, overflow drops, TTL expiries, deliveries, aware-tile
// fraction, energy — to FILE as JSONL (or CSV if FILE ends in .csv).
// The file's per-round sums reconcile exactly with the engine's
// core.Counters totals and are byte-identical at any -workers setting;
// nothing is added to stdout, so the figures golden diff is unaffected.
// See docs/OBSERVABILITY.md.
//
// -cpuprofile and -memprofile write pprof profiles of the regeneration
// (inspect with `go tool pprof`); the figure harness is the realistic
// end-to-end workload for profiling the round engine. CPU samples carry
// a "figure" label (`go tool pprof -tags`). The memory profile is
// written at exit and reflects allocations across the whole run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"text/tabwriter"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

var (
	figFlag     = flag.String("fig", "all", "figure to regenerate (e.g. 4-4, ext-robustness) or 'all'")
	runsFlag    = flag.Int("runs", 10, "repeated simulations per configuration")
	seedFlag    = flag.Uint64("seed", 2003, "master seed")
	workersFlag = flag.Int("workers", 0, "parallel replica workers (0 = GOMAXPROCS)")
	quick       = flag.Bool("quick", false, "reduced sweep resolution")
	metricsOut  = flag.String("metrics", "", "write per-round series of the canonical 8x8 broadcast to this file (JSONL; .csv suffix selects CSV)")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
)

// mc builds the sim.Config for a figure that wants `runs` replicas per
// configuration.
func mc(runs int) sim.Config {
	return sim.Config{Replicas: runs, Workers: *workersFlag, Seed: *seedFlag}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	runners := []struct {
		name string
		run  func() error
		// skipInAll excludes output the golden does not pin from -fig all,
		// which is diffed against figures_output.txt.
		skipInAll bool
	}{
		{name: "3-1", run: fig31},
		{name: "3-3", run: fig33},
		{name: "4-4", run: fig44},
		{name: "4-5", run: fig45},
		{name: "4-6", run: fig46},
		{name: "4-8", run: fig48},
		{name: "4-9", run: fig49},
		{name: "4-10", run: fig410},
		{name: "4-11", run: fig411},
		{name: "5-3", run: fig53},
		{name: "ext-robustness", run: extRobustness},
		{name: "ext-mapping", run: extMapping},
		{name: "ext-spread", run: extSpread},
		{name: "ext-bimodal", run: extBimodal},
		{name: "ext-ttl", run: extTTL},
		{name: "ext-fec", run: extFEC},
		// smc prints SPRT-chosen replica counts, which are a property of
		// the statistics rather than of the protocol tables the golden
		// file pins; kept out of -fig all.
		{name: "smc", run: figSMC, skipInAll: true},
	}
	ran := false
	for _, r := range runners {
		if *figFlag == "all" && r.skipInAll {
			continue
		}
		if *figFlag != "all" && *figFlag != r.name {
			continue
		}
		ran = true
		fmt.Printf("==== Figure %s ====\n", r.name)
		// The label splits a -cpuprofile by figure (go tool pprof -tags);
		// a sweep two figures share is charged to the first that runs it.
		var err error
		pprof.Do(context.Background(), pprof.Labels("figure", r.name), func(context.Context) {
			err = r.run()
		})
		if err != nil {
			log.Fatalf("figure %s: %v", r.name, err)
		}
		fmt.Println()
	}
	if !ran {
		log.Fatalf("unknown figure %q", *figFlag)
	}

	if *metricsOut != "" {
		if err := exportMetrics(*metricsOut); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
}

// exportMetrics runs the canonical instrumented broadcast and writes its
// merged per-round series to path (CSV for a .csv suffix, JSONL
// otherwise). It writes only to the file — stdout stays byte-identical
// to an un-instrumented run.
func exportMetrics(path string) error {
	agg, err := experiments.BroadcastMetrics(mc(*runsFlag))
	if err != nil {
		return err
	}
	return metrics.WriteFile(path, agg)
}

func table(header string, rows func(w *tabwriter.Writer)) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	rows(w)
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}

func fig31() error {
	rows, err := experiments.Fig31(mc(*runsFlag * 10))
	if err != nil {
		return err
	}
	fmt.Println("Message spreading, 1000-node fully connected network (Fig. 3-1)")
	table("round\ttheory I(t)\tsimulated mean", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%.1f\t%.1f\n", r.Round, r.Theory, r.SimMean)
		}
	})
	return nil
}

func fig33() error {
	res, err := experiments.Fig33(*seedFlag)
	if err != nil {
		return err
	}
	fmt.Println("Producer–Consumer on a 4x4 NoC, p=0.5 (Fig. 3-3)")
	fmt.Printf("Manhattan distance:  %d hops\n", res.ManhattanDistance)
	fmt.Printf("delivered in round:  %d\n", res.DeliveryRound)
	table("round\ttiles aware", func(w *tabwriter.Writer) {
		for i, n := range res.AwarePerRound {
			fmt.Fprintf(w, "%d\t%d\n", i+1, n)
			if n >= 16 {
				break
			}
		}
	})
	return nil
}

func fig44() error {
	dead := []int{0, 1, 2, 3, 4}
	if *quick {
		dead = []int{0, 2}
	}
	for _, app := range []experiments.CaseApp{experiments.FFT2, experiments.MasterSlave} {
		rows, err := experiments.Fig44(app, dead, mc(*runsFlag))
		if err != nil {
			return err
		}
		fmt.Printf("Latency & energy vs tile crash failures — %s (Fig. 4-4)\n", app)
		table("p\tdead tiles\tlatency [rounds]\tenergy [J/bit]\tcompletion", func(w *tabwriter.Writer) {
			for _, r := range rows {
				fmt.Fprintf(w, "%.2f\t%d\t%.1f ±%.1f\t%.3g\t%.0f%%\n",
					r.P, r.DeadTiles, r.Result.Rounds.Mean, r.Result.Rounds.StdDev,
					r.Result.EnergyPerBit.Mean, 100*r.Result.CompletionRate)
			}
		})
		fmt.Println()
	}
	return nil
}

func fig45() error {
	dead := []int{0, 2, 4, 6}
	upsets := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9}
	if *quick {
		dead = []int{0, 4}
		upsets = []float64{0, 0.5, 0.9}
	}
	cells, err := experiments.Fig45(dead, upsets, mc(*runsFlag))
	if err != nil {
		return err
	}
	fmt.Println("Master–Slave latency surface: dead tiles x data upsets, p=0.5 (Fig. 4-5)")
	table("dead tiles\tp_upset\tlatency [rounds]\tcompletion", func(w *tabwriter.Writer) {
		for _, c := range cells {
			fmt.Fprintf(w, "%d\t%.2f\t%.1f ±%.1f\t%.0f%%\n",
				c.DeadTiles, c.PUpset, c.Result.Rounds.Mean, c.Result.Rounds.StdDev,
				100*c.Result.CompletionRate)
		}
	})
	return nil
}

func fig46() error {
	res, err := experiments.Fig46(mc(3))
	if err != nil {
		return err
	}
	fmt.Println("Stochastic NoC vs shared bus, 0.25um parameters (Fig. 4-6)")
	table("implementation\tlatency [µs]\tenergy [J/bit]\tenergy×delay [J·s/bit]", func(w *tabwriter.Writer) {
		for i, r := range res.Runs {
			fmt.Fprintf(w, "NoC run %d\t%.2f\t%.3g\t%.3g\n",
				i+1, 1e6*r.LatencySeconds, r.EnergyPerBitJ, r.EnergyDelayJsPB)
		}
		fmt.Fprintf(w, "NoC average\t%.2f\t%.3g\t%.3g\n",
			1e6*res.NoCAvg.LatencySeconds, res.NoCAvg.EnergyPerBitJ, res.NoCAvg.EnergyDelayJsPB)
		fmt.Fprintf(w, "Bus\t%.2f\t%.3g\t%.3g\n",
			1e6*res.Bus.LatencySeconds, res.Bus.EnergyPerBitJ, res.Bus.EnergyDelayJsPB)
	})
	fmt.Printf("bus/NoC latency ratio: %.1fx (thesis: 11x)\n", res.LatencyRatio)
	fmt.Printf("NoC/bus energy ratio:  %.2fx (thesis: 1.05x; see EXPERIMENTS.md)\n", res.EnergyRatio)
	return nil
}

// mp3Grid is the (p, p_upset) sweep that Figs. 4-8 and 4-9 share, run
// once on first use. Fig. 4-9 prints its p_upset = 0 column, so run
// alone it sweeps that column only.
var mp3Grid = sync.OnceValues(func() ([]experiments.Fig48Cell, error) {
	ps := []float64{0.25, 0.4, 0.55, 0.7, 0.85, 1}
	upsets := []float64{0, 0.2, 0.4, 0.6, 0.8}
	if *quick {
		ps = []float64{0.25, 0.5, 1}
		upsets = []float64{0, 0.6}
	}
	if *figFlag == "4-9" {
		upsets = []float64{0}
	}
	return experiments.Fig48(ps, upsets, mc(*runsFlag/2+1))
})

// fig411MaxDrop is the last drop level of Fig. 4-11; Fig. 4-10 goes on
// past it.
const fig411MaxDrop = 0.8

// mp3Faults is the pair of fault sweeps that Figs. 4-10 and 4-11
// share, run once on first use. Run alone, Fig. 4-11 sweeps only the
// drop levels it prints.
var mp3Faults = sync.OnceValues(func() (experiments.Fig410Sweeps, error) {
	drops := []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9}
	sigmas := []float64{0, 0.5, 1, 1.5, 2}
	if *quick {
		drops = []float64{0, 0.4, 0.9}
		sigmas = []float64{0, 1.5}
	}
	if *figFlag == "4-11" {
		drops = slices.DeleteFunc(drops, func(x float64) bool { return x > fig411MaxDrop })
	}
	return experiments.Fig410(drops, sigmas, mc(*runsFlag/2+1))
})

func fig48() error {
	cells, err := mp3Grid()
	if err != nil {
		return err
	}
	fmt.Printf("MP3 latency over (p, p_upset), %d frames (Fig. 4-8)\n", experiments.MP3Frames)
	table("p\tp_upset\tlatency [rounds]\tcompletion", func(w *tabwriter.Writer) {
		for _, c := range cells {
			lat := "DNF"
			if c.Latency.N > 0 {
				lat = fmt.Sprintf("%.0f ±%.0f", c.Latency.Mean, c.Latency.StdDev)
			}
			fmt.Fprintf(w, "%.2f\t%.2f\t%s\t%.0f%%\n", c.P, c.PUpset, lat, 100*c.CompletionRate)
		}
	})
	return nil
}

func fig49() error {
	cells, err := mp3Grid()
	if err != nil {
		return err
	}
	fmt.Println("MP3 communication energy vs forwarding probability p (Fig. 4-9)")
	table("p\tenergy [J]", func(w *tabwriter.Writer) {
		for _, c := range cells {
			if c.PUpset == 0 {
				fmt.Fprintf(w, "%.2f\t%.3g ±%.2g\n", c.P, c.EnergyJ.Mean, c.EnergyJ.StdDev)
			}
		}
	})
	return nil
}

func fig410() error {
	sweeps, err := mp3Faults()
	if err != nil {
		return err
	}
	fmt.Println("MP3 latency vs dropped packets (Fig. 4-10 left; 'point A' = completion collapse)")
	table("dropped\tlatency [rounds]\tcompletion", func(w *tabwriter.Writer) {
		for _, r := range sweeps.Overflow {
			lat := "DNF"
			if r.Latency.N > 0 {
				lat = fmt.Sprintf("%.0f ±%.0f", r.Latency.Mean, r.Latency.StdDev)
			}
			fmt.Fprintf(w, "%.0f%%\t%s\t%.0f%%\n", 100*r.X, lat, 100*r.CompletionRate)
		}
	})
	fmt.Println("\nMP3 latency vs synchronization error σ (Fig. 4-10 right)")
	table("σ/T_R\tlatency [rounds]\tcompletion", func(w *tabwriter.Writer) {
		for _, r := range sweeps.Sync {
			fmt.Fprintf(w, "%.0f%%\t%.0f ±%.0f\t%.0f%%\n",
				100*r.X, r.Latency.Mean, r.Latency.StdDev, 100*r.CompletionRate)
		}
	})
	return nil
}

func fig411() error {
	sweeps, err := mp3Faults()
	if err != nil {
		return err
	}
	fmt.Println("MP3 output bit-rate vs dropped packets (Fig. 4-11 left)")
	table("dropped\tbit-rate [b/s]\tjitter [rounds]", func(w *tabwriter.Writer) {
		for _, r := range sweeps.Overflow {
			if r.X <= fig411MaxDrop {
				fmt.Fprintf(w, "%.0f%%\t%.0f\t%.2f\n", 100*r.X, r.BitrateBps.Mean, r.JitterRounds.Mean)
			}
		}
	})
	fmt.Println("\nMP3 output bit-rate vs synchronization error σ (Fig. 4-11 right)")
	table("σ/T_R\tbit-rate [b/s]\tjitter [rounds]", func(w *tabwriter.Writer) {
		for _, r := range sweeps.Sync {
			fmt.Fprintf(w, "%.0f%%\t%.0f\t%.2f\n", 100*r.X, r.BitrateBps.Mean, r.JitterRounds.Mean)
		}
	})
	return nil
}

func fig53() error {
	rows, err := experiments.Fig53(mc(*runsFlag/2 + 1))
	if err != nil {
		return err
	}
	fmt.Println("On-chip diversity: beamforming on three architectures (Fig. 5-3)")
	table("architecture\tlatency [rounds]\tmessage transmissions\tcompleted", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%v\t%.1f ±%.1f\t%.0f ±%.0f\t%v\n",
				r.Arch, r.Latency.Mean, r.Latency.StdDev,
				r.Transmissions.Mean, r.Transmissions.StdDev, r.CompletedAll)
		}
	})
	return nil
}

func extRobustness() error {
	rows, err := experiments.RobustnessStudy([]int{0, 1, 2, 3, 4}, mc(*runsFlag*2))
	if err != nil {
		return err
	}
	fmt.Println("Extension: delivery robustness, gossip vs directed gossip vs XY routing (6x6, corner-to-corner)")
	table("protocol\tdead tiles\tdelivery rate\tlatency [rounds]", func(w *tabwriter.Writer) {
		for _, r := range rows {
			lat := "-"
			if r.Latency.N > 0 {
				lat = fmt.Sprintf("%.1f ±%.1f", r.Latency.Mean, r.Latency.StdDev)
			}
			fmt.Fprintf(w, "%s\t%d\t%.0f%%\t%s\n", r.Protocol, r.DeadTiles, 100*r.DeliveryRate, lat)
		}
	})
	return nil
}

func extMapping() error {
	rows, err := experiments.MappingStudy(mc(*runsFlag))
	if err != nil {
		return err
	}
	fmt.Println("Extension: mapping sensitivity of the Master-Slave workload (§4.1.3 / [21])")
	table("placement\tcomm cost [vol×hops]\tlatency [rounds]", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%.1f ±%.1f\n", r.Strategy, r.CommCost, r.Latency.Mean, r.Latency.StdDev)
		}
	})
	return nil
}

func extSpread() error {
	rows, err := experiments.GridSpread(6, 0.75, mc(*runsFlag*2))
	if err != nil {
		return err
	}
	fmt.Println("Extension: broadcast dissemination on a 6x6 mesh, p=0.75 (grid counterpart of Fig. 3-1)")
	table("round\ttiles aware (mean)", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%.1f\n", r.Round, r.AwareMean)
			if r.AwareMean >= 36 {
				break
			}
		}
	})
	return nil
}

func extBimodal() error {
	rows, err := experiments.BimodalStudy(0.40, mc(*runsFlag*30))
	if err != nil {
		return err
	}
	fmt.Println("Extension: bimodal delivery near the percolation threshold (Birman et al. [4]; crash p=0.40)")
	table("coverage of surviving tiles\tfraction of runs", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%.0f%%-%.0f%%\t%.1f%%\n", 100*r.CoverageLo, 100*r.CoverageHi, 100*r.Fraction)
		}
	})
	return nil
}

func extTTL() error {
	rows, err := experiments.TTLStudy([]uint8{4, 6, 8, 12, 16, 24, 32}, mc(*runsFlag*3))
	if err != nil {
		return err
	}
	fmt.Println("Extension: the TTL bandwidth knob (§3.3.1) — 8-hop unicast on a 5x5 grid, p=0.5")
	table("TTL\tdelivery rate\ttransmissions\tlatency [rounds]", func(w *tabwriter.Writer) {
		for _, r := range rows {
			lat := "-"
			if r.Latency.N > 0 {
				lat = fmt.Sprintf("%.1f", r.Latency.Mean)
			}
			fmt.Fprintf(w, "%d\t%.0f%%\t%.0f\t%s\n", r.TTL, 100*r.DeliveryRate, r.Transmissions.Mean, lat)
		}
	})
	return nil
}

func figSMC() error {
	rows, err := experiments.SMCStudy(mc(*runsFlag))
	if err != nil {
		return err
	}
	fmt.Println("Statistical model checking: SPRT verdicts vs exact trajectory probabilities (docs/SMC.md)")
	table("fabric\tproperty\texact P\tθ low\tverdict\treplicas\tθ high\tverdict\treplicas\tfixed-N\tagree", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.2f\t%v\t%d\t%.2f\t%v\t%d\t%d\t%v\n",
				r.Fabric, r.Property, r.Truth,
				r.Low.Theta, r.Low.Verdict, r.Low.Replicas,
				r.High.Theta, r.High.Verdict, r.High.Replicas,
				r.Low.FixedN, r.Agree())
		}
	})

	res, truth, err := experiments.SMCSplitStudy(*seedFlag)
	if err != nil {
		return err
	}
	fmt.Println("\nRare-event splitting: full awareness of a complete 16-mesh within 6 rounds, p=0.025")
	table("estimator\tprobability\ttrajectories", func(w *tabwriter.Writer) {
		fmt.Fprintf(w, "exact (flood law)\t%.3e\t-\n", truth)
		fmt.Fprintf(w, "fixed-effort splitting\t%.3e\t%d\n", res.Probability, res.Trajectories)
	})
	fmt.Printf("per-level conditional crossing fractions: %.3v\n", res.Conditional)
	return nil
}

func extFEC() error {
	rows, err := experiments.FECStudy([]float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.08},
		mc(*runsFlag*300))
	if err != nil {
		return err
	}
	fmt.Println("Extension: CRC-discard vs Hamming SEC-DED FEC on a random-bit-error channel (Ch. 3 ARQ/FEC discussion)")
	table("p_bit\tCRC frame survival\tFEC frame survival\tFEC silent miscorrections [per block]", func(w *tabwriter.Writer) {
		for _, r := range rows {
			fmt.Fprintf(w, "%.4f\t%.1f%%\t%.1f%%\t%.2e\n",
				r.Pb, 100*r.CRCSurvival, 100*r.FECSurvival, r.FECMiscorrect)
		}
	})
	return nil
}
