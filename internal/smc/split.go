package smc

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Score maps a running trajectory to its progress toward the rare
// event, evaluated at round barriers. Splitting requires the score to
// be monotone along a trajectory in expectation (awareness counts,
// cumulative deliveries, cumulative transmissions all qualify) — the
// level thresholds of SplitConfig.Levels are crossings of this
// function. msg is the injected message under study.
type Score func(n *core.Network, msg packet.MsgID) float64

// AwareScore scores a trajectory by the fraction of tiles aware of the
// message — the natural score for rare dissemination events ("the
// broadcast reaches 99% of a faulty fabric").
func AwareScore(n *core.Network, msg packet.MsgID) float64 {
	return float64(n.Aware(msg)) / float64(n.Topology().Tiles())
}

// SplitConfig parameterizes one fixed-effort importance-splitting
// estimation.
type SplitConfig struct {
	// Levels are the intermediate score thresholds, strictly
	// increasing; the last level is the rare event itself. Level design
	// guidance is in docs/SMC.md — aim for conditional crossing
	// probabilities of roughly 0.1…0.5 per stage.
	Levels []float64
	// Effort is the number of trajectories simulated per level. 0
	// defaults to 128.
	Effort int
	// Horizon is the round budget per trajectory; a trajectory that
	// neither crosses the next level nor can still progress (quiescent)
	// within it counts as a miss. 0 defaults to the model's Rounds.
	Horizon int
	// Seed is the master seed. The estimate is deterministic in Seed
	// and the configuration: stage seeds and fork seeds all derive from
	// it by index.
	Seed uint64
}

// SplitResult is the outcome of one Split estimation.
type SplitResult struct {
	// Probability is the fixed-effort estimate of P[score reaches the
	// last level within the horizon]: the product of the per-level
	// conditional crossing fractions. Zero if any stage recorded no
	// crossing (the estimator cannot continue past an empty level).
	Probability float64
	// Conditional holds the per-level crossing fractions
	// Hits[l] / Effort, one per configured level.
	Conditional []float64
	// Hits holds the raw per-level crossing counts.
	Hits []int
	// Trajectories is the total number of (partial) trajectories
	// simulated across all stages.
	Trajectories int
}

// String renders the estimate with its per-level breakdown.
func (r SplitResult) String() string {
	return fmt.Sprintf("P ≈ %.3g  (conditional %v over %d trajectories)",
		r.Probability, r.Conditional, r.Trajectories)
}

// branch is one stored level-crossing: enough state to fork
// continuations from it. Restore validates its ConfigDigest, which
// includes the seed of the root trajectory this branch descends from —
// hence rootSeed rides along with the serialized state, and so does the
// root's message ID, which the restored network does not name.
type branch struct {
	state    []byte
	rootSeed uint64
	msg      packet.MsgID
}

// Split estimates the probability of a rare trajectory event by
// fixed-effort importance splitting (a RESTART-family estimator): stage
// 0 runs Effort fresh trajectories from round 0 and snapshots each at
// the round barrier where its score first reaches Levels[0]; every
// later stage l restores the previous stage's crossing snapshots
// round-robin (core.Restore), re-derives the per-tile RNG streams from
// a fresh fork seed (core.Network.Reseed — without this every fork
// would replay its parent's exact future), and runs each continuation
// until it crosses Levels[l] or exhausts the horizon. The estimate is
// the product of the per-stage conditional crossing fractions, which
// reaches probabilities far below what cfg.Effort direct Monte Carlo
// trajectories could resolve (a 1e-6 event needs ~1e7 plain replicas
// for a single expected hit; splitting reaches it with a few hundred).
//
// Stages run sequentially and trajectories within a stage in index
// order, so the result is deterministic in (model, cfg) alone.
func Split(model Model, score Score, cfg SplitConfig) (SplitResult, error) {
	if len(cfg.Levels) == 0 {
		return SplitResult{}, fmt.Errorf("smc: Split needs at least one level")
	}
	for i := 1; i < len(cfg.Levels); i++ {
		if cfg.Levels[i] <= cfg.Levels[i-1] {
			return SplitResult{}, fmt.Errorf("smc: Split levels must be strictly increasing, got %v", cfg.Levels)
		}
	}
	effort := cfg.Effort
	if effort <= 0 {
		effort = 128
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = model.Scenario.Rounds
	}

	res := SplitResult{
		Probability: 1,
		Conditional: make([]float64, len(cfg.Levels)),
		Hits:        make([]int, len(cfg.Levels)),
	}
	root := rng.New(cfg.Seed)
	var parents []branch
	for l, level := range cfg.Levels {
		stage := root.Split(uint64(l) + 1)
		var crossed []branch
		for j := 0; j < effort; j++ {
			var parent *branch
			if l > 0 {
				parent = &parents[j%len(parents)]
			}
			b, hit, err := model.trajectory(parent, stage.Split(uint64(j)+1).Uint64(), score, level, horizon)
			if err != nil {
				return SplitResult{}, err
			}
			res.Trajectories++
			if hit {
				crossed = append(crossed, b)
			}
		}
		res.Hits[l] = len(crossed)
		res.Conditional[l] = float64(len(crossed)) / float64(effort)
		res.Probability *= res.Conditional[l]
		if len(crossed) == 0 {
			res.Probability = 0
			return res, nil
		}
		parents = crossed
	}
	return res, nil
}

// trajectory runs a fresh root under seed, or a fork of parent reseeded
// with seed, toward level. A root's scenario runs no round itself (a
// zero budget): advance, which stops on a score crossing, steps it.
func (m Model) trajectory(parent *branch, seed uint64, sc Score, level float64, horizon int) (branch, bool, error) {
	if parent != nil {
		net, err := core.Restore(bytes.NewReader(parent.state), m.scenario(parent.rootSeed, 0).Config)
		if err != nil {
			return branch{}, false, fmt.Errorf("smc: split: %w", err)
		}
		net.Reseed(seed)
		return m.advance(net, branch{rootSeed: parent.rootSeed, msg: parent.msg}, level, horizon, sc)
	}
	t, err := m.scenario(seed, 0).Run(sim.Hooks{})
	if err != nil {
		return branch{}, false, fmt.Errorf("smc: split: %w", err)
	}
	return m.advance(t.Net, branch{rootSeed: seed, msg: t.Msg}, level, horizon, sc)
}

// advance steps net until its score for b's message reaches level
// (snapshotting the crossing state into b) or the horizon/quiescence ends
// the trajectory.
func (m Model) advance(net *core.Network, b branch, level float64, horizon int, sc Score) (branch, bool, error) {
	if sc == nil {
		sc = AwareScore
	}
	for {
		if sc(net, b.msg) >= level {
			var buf bytes.Buffer
			if err := net.Snapshot(&buf); err != nil {
				return branch{}, false, fmt.Errorf("smc: split: snapshot: %w", err)
			}
			b.state = buf.Bytes()
			return b, true, nil
		}
		if net.Round() >= horizon || net.Quiescent() {
			return branch{}, false, nil
		}
		net.Step()
	}
}
