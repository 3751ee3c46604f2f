// Command nocsim runs one ad-hoc stochastic-communication simulation from
// the command line: a single message gossiped from a source tile to a
// destination tile under a configurable fault model, reporting the spread
// trace, latency and energy.
//
// Usage:
//
//	nocsim [-width W -height H] [-src T -dst T] [-p P] [-ttl N]
//	       [-seed S] [-payload BYTES] [-max-rounds N]
//	       [-dead-tiles N] [-dead-links N] [-upset P] [-overflow P]
//	       [-sigma S] [-literal-upsets]
//	       [-trace] [-viz] [-metrics FILE]
//	       [-checkpoint-every N -checkpoint-file FILE] [-resume-from FILE]
//	       [-check "PROPERTY" [-theta θ] [-delta δ] [-alpha α] [-beta β]
//	        [-max-replicas N] [-workers W]]
//
// Example — the thesis' Producer-Consumer walkthrough under 30% upsets:
//
//	nocsim -width 4 -height 4 -src 5 -dst 11 -p 0.5 -upset 0.3
//
// -metrics FILE records the run through the internal/metrics per-round
// recorder and writes the series (transmissions, CRC rejects, drops,
// expiries, deliveries, aware fraction, energy per round) as JSONL, or
// CSV when FILE ends in .csv. See docs/OBSERVABILITY.md.
//
// -checkpoint-every N -checkpoint-file FILE snapshot the complete run
// state to FILE every N rounds (atomically — an interrupted save never
// leaves a torn file); -resume-from FILE continues an interrupted run
// from its last checkpoint. The resumed run is bit-identical to the
// uninterrupted one, provided every other flag matches the original
// invocation (verified via a config digest embedded in the file). The
// -trace timeline cannot span a resume (events before the checkpoint are
// gone), so -trace and -resume-from are mutually exclusive.
//
// -check "PROPERTY" switches from simulating once to statistical model
// checking (internal/smc): does the configured run satisfy PROPERTY
// with probability at least -theta? Replicas of the fabric run under
// seeds derived from -seed until Wald's sequential test settles with
// error bounds -alpha/-beta (indifference half-width -delta), printing
// the verdict, the consumed replica count and the equal-error fixed-N
// baseline. The exit status encodes the verdict — 0 ACCEPT, 1 REJECT,
// 2 UNDECIDED (replica budget -max-replicas exhausted) — so checks can
// gate scripts. The property language ("aware(0.9) within 32",
// "delivered by 16 and transmissions <= 4000", ...) is documented in
// docs/SMC.md. -check applies to the same single src→dst message the
// plain mode simulates; per-run flags (-trace, -viz, -metrics,
// checkpointing) cannot combine with it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
)

var (
	width      = flag.Int("width", 4, "grid width")
	height     = flag.Int("height", 4, "grid height")
	src        = flag.Int("src", 5, "source tile")
	dst        = flag.Int("dst", 11, "destination tile")
	p          = flag.Float64("p", 0.5, "forwarding probability")
	ttl        = flag.Int("ttl", core.DefaultTTL, "message TTL in rounds")
	seed       = flag.Uint64("seed", 1, "simulation seed")
	deadT      = flag.Int("dead-tiles", 0, "tiles to crash")
	deadL      = flag.Int("dead-links", 0, "links to crash")
	upset      = flag.Float64("upset", 0, "per-transmission data-upset probability")
	overflow   = flag.Float64("overflow", 0, "per-reception buffer-overflow probability")
	sigma      = flag.Float64("sigma", 0, "synchronization error σ/T_R")
	literal    = flag.Bool("literal-upsets", false, "flip real bits and let the CRC catch them")
	maxR       = flag.Int("max-rounds", 200, "round budget")
	payload    = flag.Int("payload", 16, "payload size in bytes")
	showTrace  = flag.Bool("trace", false, "print the message's full event timeline")
	showViz    = flag.Bool("viz", false, "render the spread as an ASCII grid each round")
	metricsOut = flag.String("metrics", "", "write the run's per-round series to this file (JSONL; .csv suffix selects CSV)")
	ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint the run to -checkpoint-file every N rounds (0 = off)")
	ckptFile   = flag.String("checkpoint-file", "", "checkpoint file path (needed with -checkpoint-every)")
	resumeFrom = flag.String("resume-from", "", "resume the run from this checkpoint file (flags must match the original run)")
	checkProp  = flag.String("check", "", "statistically check a property of the run instead of simulating once (spec language: docs/SMC.md)")
	theta      = flag.Float64("theta", 0.9, "with -check: probability threshold θ — test P[property] >= θ")
	delta      = flag.Float64("delta", 0.02, "with -check: SPRT indifference half-width δ around θ")
	alpha      = flag.Float64("alpha", 0.01, "with -check: false-accept probability bound α")
	beta       = flag.Float64("beta", 0.01, "with -check: false-reject probability bound β")
	maxReps    = flag.Int("max-replicas", 100000, "with -check: replica budget before reporting UNDECIDED")
	workers    = flag.Int("workers", 0, "with -check: replica worker pool (0 = GOMAXPROCS; verdict is worker-count independent)")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsim: ")
	flag.Parse()

	sc := scenario()
	grid := sc.Config.Topo.(*topology.Grid)
	if *src < 0 || *src >= grid.Tiles() || *dst < 0 || *dst >= grid.Tiles() {
		log.Fatalf("src/dst out of range for a %dx%d grid", *width, *height)
	}
	if *checkProp != "" {
		runCheck(sc)
		return
	}
	if *ckptEvery > 0 && *ckptFile == "" {
		log.Fatal("-checkpoint-every needs -checkpoint-file")
	}
	if *resumeFrom != "" && *showTrace {
		log.Fatal("-trace cannot span a resume; drop one of -trace / -resume-from")
	}
	col := &trace.Collector{}
	if *showTrace {
		sc.Config.OnEvent = col.Hook()
	}
	from := 0 // the round the run starts at: > 0 after a resume
	h := sim.Hooks{
		Record: *metricsOut != "",
		Start: func(t *sim.Trial) {
			fmt.Printf("gossiping tile %d -> tile %d on a %dx%d NoC (p=%.2f, TTL=%d, Manhattan=%d)\n",
				*src, *dst, *width, *height, *p, *ttl, grid.Manhattan(sc.Src, sc.Dst))
			if from = t.Net.Round(); from > 0 {
				fmt.Printf("resumed from %s at round %d\n", *resumeFrom, from)
			}
			if *showViz {
				fmt.Println(viz.Legend())
			}
		},
		OnRound: func(t *sim.Trial) error {
			fmt.Printf("round %3d: %2d/%d tiles aware\n", t.Net.Round(), t.Net.Aware(t.Msg), grid.Tiles())
			if *showViz {
				fmt.Print(viz.Frame(t.Net, grid, t.Msg, sc.Src, sc.Dst))
			}
			if *ckptEvery > 0 && t.Net.Round()%*ckptEvery == 0 {
				// Engine plus recorder, when one is attached; atomic, so an
				// interruption mid-save never leaves a torn file.
				return sim.SaveCheckpoint(*ckptFile, sim.CheckpointMeta{Seed: *seed}, t.Net, t.Rec)
			}
			return nil
		},
	}
	if *resumeFrom != "" {
		h.Resume = func(cfg core.Config, rec *metrics.Recorder) (*core.Network, bool, error) {
			f, err := os.Open(*resumeFrom)
			if err != nil {
				return nil, false, fmt.Errorf("resume: %w", err)
			}
			defer f.Close()
			net, _, err := sim.ReadCheckpoint(f, cfg, rec)
			if err != nil {
				return nil, false, fmt.Errorf("resume %s: %w", *resumeFrom, err)
			}
			return net, true, nil
		}
	}
	t, err := sc.Run(h)
	if err != nil {
		log.Fatal(err)
	}

	c := t.Net.Counters()
	switch {
	case t.Resumed && t.Delivered == from:
		fmt.Println("result: delivered before the resume point (round not replayed)")
	case t.Delivered < 0:
		fmt.Println("result: NOT DELIVERED (every copy was lost or expired)")
	default:
		fmt.Printf("result: delivered in round %d\n", t.Delivered)
	}
	fmt.Printf("traffic: %d transmissions, %d bits\n", c.Energy.Transmissions, c.Energy.Bits)
	fmt.Printf("energy (0.25um link): %.3g J\n", c.Energy.EnergyJ(sc.Tech))
	fmt.Printf("faults: %d upsets detected, %d overflow drops, %d slipped deliveries\n",
		c.UpsetsDetected, c.OverflowDrops, c.SlippedDeliveries)
	if *showTrace {
		fmt.Print(col.Timeline(t.Msg))
		if v := col.CheckInvariants(); len(v) > 0 {
			log.Fatalf("trace invariant violations: %v", v)
		}
	}
	if t.Rec != nil {
		// A one-replica merge: mean = the run's value, n = 1 per round.
		agg, err := metrics.Merge([]*metrics.TimeSeries{t.Rec.Series()})
		if err == nil {
			err = metrics.WriteFile(*metricsOut, agg)
		}
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		fmt.Printf("metrics: per-round series written to %s\n", *metricsOut)
	}
}

// scenario maps the flags onto the experiment they name: the same
// sim.Scenario a service.JobRequest with the same values gives
// (TestFlagsMatchJobRequest), plus -literal-upsets, which a request
// cannot set.
func scenario() sim.Scenario {
	s, d := packet.TileID(*src), packet.TileID(*dst)
	return sim.Scenario{
		Config: core.Config{
			Topo: topology.NewGrid(*width, *height), P: *p, TTL: uint8(*ttl), MaxRounds: *maxR, Seed: *seed,
			Fault: fault.Model{
				DeadTiles: *deadT, DeadLinks: *deadL,
				PUpset: *upset, POverflow: *overflow, SigmaSync: *sigma,
				LiteralUpsets: *literal,
				Protect:       []packet.TileID{s, d},
			},
		},
		Src: s, Dst: d, Kind: 1, Payload: *payload, Rounds: *maxR,
		Tech: energy.NoCLink025, StopAtDelivery: true,
	}
}

// runCheck is the -check mode: instead of simulating the src→dst
// gossip once, it asks whether the run satisfies the given property
// with probability at least θ, replicating the configured fabric under
// derived seeds until Wald's SPRT settles (internal/smc; the spec
// language, decision procedure and error guarantees are documented in
// docs/SMC.md). The verdict maps onto the exit status — 0 ACCEPT,
// 1 REJECT, 2 UNDECIDED — so properties can gate scripts and CI.
func runCheck(sc sim.Scenario) {
	for name, set := range map[string]bool{
		"-trace":            *showTrace,
		"-viz":              *showViz,
		"-metrics":          *metricsOut != "",
		"-checkpoint-every": *ckptEvery > 0,
		"-resume-from":      *resumeFrom != "",
	} {
		if set {
			log.Fatalf("%s applies to a single simulated run and cannot combine with -check", name)
		}
	}
	prop, err := smc.Parse(*checkProp)
	if err != nil {
		log.Fatal(err)
	}
	// smc replicates the scenario under derived seeds (it ignores Seed),
	// injecting kind 0 and running each replica past its delivery.
	sc.Kind, sc.StopAtDelivery = 0, false
	rep, err := smc.Check(prop, smc.Model{Scenario: sc}.Replica(prop), smc.CheckConfig{
		Theta: *theta, Delta: *delta, Alpha: *alpha, Beta: *beta,
		MaxReplicas: *maxReps, Workers: *workers, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checking P[%s] >= %g on a %dx%d NoC (tile %d -> tile %d, p=%.2f, TTL=%d)\n",
		rep.Property, rep.Theta, *width, *height, *src, *dst, *p, *ttl)
	fmt.Println(rep)
	switch rep.Verdict {
	case smc.Accepted:
		os.Exit(0)
	case smc.Rejected:
		os.Exit(1)
	default:
		os.Exit(2)
	}
}
