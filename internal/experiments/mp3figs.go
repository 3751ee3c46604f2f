package experiments

import (
	"repro/internal/apps/mp3"
	"repro/internal/audio/encoder"
	"repro/internal/audio/signal"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// MP3Frames is the stream length used by the §4.2 experiments.
const MP3Frames = 16

// mp3Run is one MP3 pipeline replica's completion and latency, energy
// and output metrics.
type mp3Run struct {
	delivery
	EnergyJ float64
	Output  *mp3.Output
}

func runMP3(cfg core.Config, seed uint64) (*mp3Run, error) {
	cfg.Topo = topology.NewGrid(4, 4)
	cfg.Seed = seed
	if cfg.TTL == 0 {
		// Sparse forwarding (p = 0.25) needs longer-lived messages than
		// the grid default to bridge the pipeline hops reliably.
		cfg.TTL = 20
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 1500
	}
	net, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	pipe, err := mp3.Setup(net, mp3.DefaultTiles(), encoder.Config{},
		signal.DefaultProgram(), MP3Frames)
	if err != nil {
		return nil, err
	}
	res := net.Run()
	return &mp3Run{
		delivery: delivery{got: res.Completed, round: res.Rounds},
		EnergyJ:  res.Counters.Energy.EnergyJ(energy.NoCLink025),
		Output:   pipe.Output(),
	}, nil
}

// MP3Stats is one MP3 configuration's replicas reduced to every quantity
// Figs. 4-8 to 4-11 print.
type MP3Stats struct {
	// Latency is the encoding latency in rounds over completed runs.
	Latency        stats.Summary
	CompletionRate float64
	// EnergyJ is the communication energy over completed runs.
	EnergyJ stats.Summary
	// BitrateBps is the sustained output bit-rate over all runs.
	BitrateBps stats.Summary
	// JitterRounds is the output inter-arrival jitter (Fig. 4-11's error
	// bars) over all runs.
	JitterRounds stats.Summary
}

// mp3Cell runs mc.Replicas independent MP3 pipeline replicas of cfg and
// reduces them in one pass.
func mp3Cell(cfg core.Config, mc sim.Config) (MP3Stats, error) {
	runs, err := sim.Run(mc, func(_ int, seed uint64) (*mp3Run, error) {
		return runMP3(cfg, seed)
	})
	if err != nil {
		return MP3Stats{}, err
	}
	var d deliveries
	var en, br, jit stats.Online
	for _, run := range runs {
		d.add(run.delivery)
		if run.got {
			en.Add(run.EnergyJ)
		}
		// Bit-rate is measured whether or not the run completed: a
		// stalled encoding shows up as missing bits, exactly as the
		// thesis' monitoring would see it.
		br.Add(run.Output.BitrateBps())
		jit.Add(run.Output.JitterRounds())
	}
	return MP3Stats{
		Latency:        stats.Summarize(&d.latency),
		CompletionRate: d.rate(),
		EnergyJ:        stats.Summarize(&en),
		BitrateBps:     stats.Summarize(&br),
		JitterRounds:   stats.Summarize(&jit),
	}, nil
}

// Fig48Cell is one (p, p_upset) point of the MP3 sweep behind Figs. 4-8
// and 4-9.
type Fig48Cell struct {
	P, PUpset float64
	MP3Stats
}

// Fig48 reproduces Figs. 4-8 and 4-9 from one sweep of the (p, p_upset)
// plane. Fig. 4-8 is the MP3 encoding latency (rounds) over the plane —
// best at (p=1, upset=0), rising toward low p / high upsets, DNF in the
// worst corner. Fig. 4-9 is the communication energy of the p_upset = 0
// column — approximately linear in p, because the total number of
// transmitted packets is dictated by p.
func Fig48(ps, upsets []float64, mc sim.Config) ([]Fig48Cell, error) {
	var cells []Fig48Cell
	for _, p := range ps {
		for _, pu := range upsets {
			s, err := mp3Cell(core.Config{P: p, Fault: fault.Model{PUpset: pu}}, mc)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Fig48Cell{P: p, PUpset: pu, MP3Stats: s})
		}
	}
	return cells, nil
}

// Fig410Row is one x-value of the left or right panels of Figs. 4-10 and
// 4-11.
type Fig410Row struct {
	// X is p_overflow (left panels) or σ_synchr (right panels).
	X float64
	MP3Stats
}

// Fig410Sweeps are the two fault sweeps behind Figs. 4-10 and 4-11.
type Fig410Sweeps struct {
	// Overflow is the left panels: MP3 latency and output bit-rate vs.
	// the fraction of packets dropped to buffer overflow. Latency stays
	// flat until the "point A" cliff where losses become fatal; the
	// bit-rate is sustained well past 60 %.
	Overflow []Fig410Row
	// Sync is the right panels: latency and bit-rate vs. the
	// synchronization-error level σ_synchr (relative to T_R). The mean
	// latency and the rate hold; the spread and the jitter grow.
	Sync []Fig410Row
}

// Fig410 reproduces Figs. 4-10 and 4-11 at p = 0.75 over the drop levels
// and σ_synchr levels given. The 0 %-drop and σ_synchr = 0 cells are the
// same fault-free config under the same seeds, so it runs once and both
// panels print it.
func Fig410(drops, sigmas []float64, mc sim.Config) (Fig410Sweeps, error) {
	var out Fig410Sweeps
	var clean *MP3Stats
	sweep := func(xs []float64, mk func(float64) fault.Model) ([]Fig410Row, error) {
		var rows []Fig410Row
		for _, x := range xs {
			if x == 0 && clean != nil {
				rows = append(rows, Fig410Row{X: x, MP3Stats: *clean})
				continue
			}
			s, err := mp3Cell(core.Config{P: 0.75, Fault: mk(x)}, mc)
			if err != nil {
				return nil, err
			}
			if x == 0 {
				clean = &s
			}
			rows = append(rows, Fig410Row{X: x, MP3Stats: s})
		}
		return rows, nil
	}
	var err error
	if out.Overflow, err = sweep(drops, func(x float64) fault.Model { return fault.Model{POverflow: x} }); err != nil {
		return Fig410Sweeps{}, err
	}
	if out.Sync, err = sweep(sigmas, func(x float64) fault.Model { return fault.Model{SigmaSync: x} }); err != nil {
		return Fig410Sweeps{}, err
	}
	return out, nil
}
