package smc

import (
	"fmt"

	"repro/internal/sim"
)

// Replica evaluates the checked property on one independent replica:
// it simulates the system under seed and reports whether the property
// held on that trajectory. replica is the global replica index (useful
// for diagnostics); seed fully determines the trajectory. Model.Replica
// builds one from a core.Config and a Property.
type Replica func(replica int, seed uint64) (bool, error)

// CheckConfig parameterizes one sequential property check.
type CheckConfig struct {
	// Theta is the probability threshold under test: the check decides
	// P[φ] ≥ Theta against P[φ] < Theta.
	Theta float64
	// Delta is the indifference half-width: trajectory probabilities
	// inside (Theta−Delta, Theta+Delta) may settle either way. 0
	// defaults to 0.01. Theta±Delta must stay inside (0, 1).
	Delta float64
	// Alpha bounds the false-accept probability (accepting P ≥ θ when
	// the truth is ≤ θ−δ). 0 defaults to 0.01.
	Alpha float64
	// Beta bounds the false-reject probability. 0 defaults to 0.01.
	Beta float64
	// MaxReplicas caps the replicas the check may consume before giving
	// up Undecided (the SPRT terminates with probability 1, but a true p
	// deep inside the indifference region can take long). 0 defaults to
	// 100000.
	MaxReplicas int
	// Workers bounds the worker pool (sim.Config.Workers semantics). It
	// also sets the least wave size (see Check), so at most Workers−1
	// replicas past the SPRT's stopping point are simulated and
	// discarded: none at Workers = 1.
	Workers int
	// Seed is the master seed; replica r's seed is derived from it by
	// absolute index (sim.RunOffset), so the verdict is deterministic in
	// Seed and the test parameters alone — Workers can change wall-clock
	// time and wasted replicas, never the Report.
	Seed uint64
}

// Report is the outcome of one Check run.
type Report struct {
	// Property is the canonical text of the checked property.
	Property string
	// Verdict is the SPRT decision: Accepted (P[φ] ≥ θ), Rejected
	// (P[φ] < θ), or Undecided if MaxReplicas ran out first.
	Verdict Verdict
	// Replicas is the number of trajectory outcomes the SPRT consumed
	// before stopping (wave over-run beyond the stopping point is not
	// counted — it cannot influence the verdict).
	Replicas int
	// Successes is how many consumed trajectories satisfied the
	// property.
	Successes int
	// LLR is the final log-likelihood ratio.
	LLR float64
	// FixedN is the equal-error fixed-sample-size requirement (see
	// FixedN) — compare against Replicas for the sequential saving.
	FixedN int
	// Theta, Delta, Alpha, Beta echo the effective test parameters
	// (after defaulting).
	Theta, Delta, Alpha, Beta float64
}

// String renders the report as the one-line verdict summary the CLI
// prints.
func (r Report) String() string {
	return fmt.Sprintf("%s: %s  theta=%g delta=%g alpha=%g beta=%g  replicas=%d (fixed-N %d)  successes=%d  llr=%+.3f",
		r.Property, r.Verdict, r.Theta, r.Delta, r.Alpha, r.Beta, r.Replicas, r.FixedN, r.Successes, r.LLR)
}

// withDefaults resolves the zero-value defaults.
func (c CheckConfig) withDefaults() CheckConfig {
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.Alpha == 0 {
		c.Alpha = 0.01
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = 100000
	}
	return c
}

// maxWave bounds a wave, and with it the outcomes one sim.RunOffset call
// holds. A wave below the bound already simulates nothing the SPRT could
// skip, so the bound only adds a barrier on checks that run long.
const maxWave = 64

// Check sequentially tests P[φ] ≥ θ for the property φ evaluated by
// replica, scheduling trajectory replicas through the internal/sim
// worker pool in waves and feeding their outcomes — strictly in
// replica-index order — to a Wald SPRT until it settles or
// cfg.MaxReplicas is exhausted. Each wave is as long as the fewest
// outcomes after which the SPRT could stop, but at least the worker
// count (so every worker has a replica) and at most maxWave: no wave
// runs past the earliest possible stop by more than Workers−1 replicas.
// The Report is deterministic in (cfg.Seed, cfg.Theta, cfg.Delta,
// cfg.Alpha, cfg.Beta) alone: replica seeds derive from the absolute
// replica index, and outcomes past the SPRT's stopping index are
// discarded, so neither the wave sizes nor the worker count can shift
// the verdict or the consumed-replica count.
func Check(prop Property, replica Replica, cfg CheckConfig) (Report, error) {
	cfg = cfg.withDefaults()
	test, err := NewSPRT(cfg.Theta, cfg.Delta, cfg.Alpha, cfg.Beta)
	if err != nil {
		return Report{}, err
	}
	workers := sim.PoolSize(cfg.Workers)
	for offset := 0; test.Verdict() == Undecided && offset < cfg.MaxReplicas; {
		wave := min(max(test.minToStop(maxWave), workers), maxWave, cfg.MaxReplicas-offset)
		mc := sim.Config{Replicas: wave, Workers: cfg.Workers, Seed: cfg.Seed}
		outcomes, err := sim.RunOffset(mc, offset, replica)
		if err != nil {
			return Report{}, err
		}
		for _, ok := range outcomes {
			if test.Add(ok) != Undecided {
				break
			}
		}
		offset += wave
	}
	return Report{
		Property:  prop.String(),
		Verdict:   test.Verdict(),
		Replicas:  test.N(),
		Successes: test.Successes(),
		LLR:       test.LLR(),
		FixedN:    FixedN(cfg.Theta, cfg.Delta, cfg.Alpha, cfg.Beta),
		Theta:     cfg.Theta,
		Delta:     cfg.Delta,
		Alpha:     cfg.Alpha,
		Beta:      cfg.Beta,
	}, nil
}
