package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// GridScalingRow is one mesh size of the engine scaling study: the same
// center broadcast run to full awareness by the sequential engine and by
// the sharded engine, with the (bit-identical) protocol outcome and both
// wall-clock times.
type GridScalingRow struct {
	// Side is the mesh edge; Tiles = Side².
	Side, Tiles int
	// Shards is the shard count the parallel run executed with — what the
	// engine granted (core.Network.Shards), not what was asked for.
	Shards int
	// RoundsToFull is the round at which every tile was aware of the
	// broadcast (the dissemination latency the thesis scales by mesh
	// diameter).
	RoundsToFull int
	// FullyAware reports whether the broadcast reached every tile before
	// the round budget (TTL death would leave it false).
	FullyAware bool
	// Transmissions is the total link transmissions of the run —
	// identical between the sequential and sharded executions.
	Transmissions int
	// SeqSeconds and ShardSeconds are the wall-clock times of the two
	// executions; Speedup = SeqSeconds / ShardSeconds.
	SeqSeconds, ShardSeconds float64
	Speedup                  float64
}

// scalingBroadcast runs one center broadcast on a side×side mesh until
// full awareness (or the round budget) and reports the outcome, the shard
// count the engine ran with, and the wall-clock of the Step loop.
func scalingBroadcast(side, shards int, seed uint64) (res core.Result, ran int, secs float64, err error) {
	g := topology.NewGrid(side, side)
	cfg := core.Config{
		Topo: g, P: 0.5, TTL: 255, MaxRounds: 1024, Seed: seed, Shards: shards,
	}
	net, err := core.New(cfg)
	if err != nil {
		return core.Result{}, 0, 0, err
	}
	id, err := net.Inject(g.ID(side/2, side/2), packet.Broadcast, 0, nil)
	if err != nil {
		return core.Result{}, 0, 0, err
	}
	tiles := g.Tiles()
	start := time.Now()
	res = net.RunWhile(func(n *core.Network) bool { return n.Aware(id) < tiles })
	return res, net.Shards(), time.Since(start).Seconds(), nil
}

// MegaChurnRow is one mesh size of the mega-mesh churn study: a
// recycling fabric under sustained injection, reported as throughput
// plus the memory-per-tile figures the PR 6 refactor is about.
type MegaChurnRow struct {
	// Side is the mesh edge; Tiles = Side².
	Side, Tiles int
	// Shards is the shard count the run executed with
	// (core.Network.Shards).
	Shards int
	// Rounds and Injected describe the workload: Rounds churn rounds with
	// Injected total fresh broadcasts spread uniformly across them.
	Rounds, Injected int
	// Retired counts slots reclaimed by ID recycling over the run.
	Retired int
	// MidSlots and EndSlots are the slot-table size at the half-way
	// point and at the end — equal values demonstrate the table is
	// bounded by the live population, not by messages issued.
	MidSlots, EndSlots int
	// LiveEnd is the live message population after the final round.
	LiveEnd int
	// BytesPerTile is the message table's end-of-run footprint divided
	// by the tile count.
	BytesPerTile float64
	// RoundsPerSec is the measured churn-round throughput.
	RoundsPerSec float64
}

// MegaChurn runs the sustained-injection study on each mesh side:
// perRound fresh broadcasts per round for the given number of rounds,
// with ID recycling on and TTL-bounded spread, so the live population —
// and, the point of the exercise, the message table — stays constant
// while messages issued grows without bound. shards <= 1 auto-picks via
// sim.Config.AutoShards (mega-meshes take the whole pool).
func MegaChurn(sides []int, perRound, rounds, shards int, seed uint64) ([]MegaChurnRow, error) {
	rows := make([]MegaChurnRow, 0, len(sides))
	for _, side := range sides {
		tiles := side * side
		sc := shards
		if sc <= 1 {
			sc = sim.Config{Replicas: 1}.AutoShards(tiles)
		}
		g := topology.NewGrid(side, side)
		cfg := core.Config{
			Topo: g, P: 0.5, TTL: 16, MaxRounds: 1 << 30, Seed: seed,
			Recycle: true, Shards: sc,
		}
		net, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		midSlots := 0
		start := time.Now()
		for round := 0; round < rounds; round++ {
			for i := 0; i < perRound; i++ {
				src := packet.TileID((int64(round*perRound)*2654435761 + int64(i*40503)) % int64(tiles))
				if _, err := net.Inject(src, packet.Broadcast, 0, nil); err != nil {
					return nil, err
				}
			}
			net.Step()
			if round == rounds/2 {
				midSlots = net.Mem().Slots
			}
		}
		secs := time.Since(start).Seconds()
		m := net.Mem()
		rows = append(rows, MegaChurnRow{
			Side: side, Tiles: tiles, Shards: net.Shards(),
			Rounds: rounds, Injected: rounds * perRound,
			Retired:  net.Counters().Retired,
			MidSlots: midSlots, EndSlots: m.Slots, LiveEnd: m.Live,
			BytesPerTile: float64(m.TableBytes) / float64(tiles),
			RoundsPerSec: float64(rounds) / secs,
		})
	}
	return rows, nil
}

// GridScaling is the intra-run parallelism study: for each mesh side it
// executes the identical broadcast replica sequentially and with the
// sharded engine, checks the two outcomes are bit-identical (rounds,
// counters — the sharding contract), and records both wall-clock times.
// shards <= 1 auto-picks via sim.Config.AutoShards for a single replica
// owning the whole machine; an explicit count (e.g. from -shards) is
// handed to the engine as given, and the row reports what the engine
// granted. Timing is single-replica on purpose: a busy Monte Carlo pool
// would corrupt the wall-clock comparison.
func GridScaling(sides []int, shards int, seed uint64) ([]GridScalingRow, error) {
	rows := make([]GridScalingRow, 0, len(sides))
	for _, side := range sides {
		tiles := side * side
		sc := shards
		if sc <= 1 {
			sc = sim.Config{Replicas: 1}.AutoShards(tiles)
		}
		seq, _, seqSecs, err := scalingBroadcast(side, 1, seed)
		if err != nil {
			return nil, err
		}
		par, ran, parSecs, err := scalingBroadcast(side, sc, seed)
		if err != nil {
			return nil, err
		}
		if seq.Rounds != par.Rounds || seq.Counters != par.Counters {
			return nil, fmt.Errorf(
				"experiments: sharded engine diverged on %dx%d (shards=%d): rounds %d vs %d",
				side, side, ran, seq.Rounds, par.Rounds)
		}
		rows = append(rows, GridScalingRow{
			Side: side, Tiles: tiles, Shards: ran,
			RoundsToFull:  seq.Rounds,
			FullyAware:    seq.Completed,
			Transmissions: seq.Counters.Energy.Transmissions,
			SeqSeconds:    seqSecs,
			ShardSeconds:  parSecs,
			Speedup:       seqSecs / parSecs,
		})
	}
	return rows, nil
}
