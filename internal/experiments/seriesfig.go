package experiments

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The canonical instrumented broadcast: the Fig. 3-3 walkthrough scaled
// to the engine microbench mesh (8×8 grid, center broadcast, p = 0.5)
// under a mildly faulty channel, so every series the recorder defines is
// exercised — transmissions, CRC rejects, overflow drops, TTL expiries,
// deliveries, the awareness trajectory, and per-round energy.
const (
	broadcastSide      = 8
	broadcastTTL       = 32
	broadcastMaxRounds = 72 // TTL + spread transient + draining margin
)

// broadcastSeriesReplica runs one replica of the canonical broadcast and
// returns its recorded TimeSeries next to the engine's own Counters, so
// tests can reconcile the two tallies event for event. The run drains
// fully (every copy expired), so the TTL-expiry tail is recorded.
func broadcastSeriesReplica(seed uint64) (*metrics.TimeSeries, core.Counters, error) {
	g := topology.NewGrid(broadcastSide, broadcastSide)
	center := g.ID(broadcastSide/2, broadcastSide/2)
	sc := sim.Scenario{
		Config: core.Config{
			Topo: g, P: 0.5, TTL: broadcastTTL, MaxRounds: broadcastMaxRounds, Seed: seed,
			Fault: fault.Model{PUpset: 0.1, POverflow: 0.05, Protect: []packet.TileID{center}},
		},
		Src: center, Dst: packet.Broadcast, Payload: 16,
		Rounds: broadcastMaxRounds, Tech: energy.NoCLink025,
	}
	t, err := sc.Run(sim.Hooks{Record: true})
	if err != nil {
		return nil, core.Counters{}, err
	}
	return t.Rec.Series(), t.Net.Counters(), nil
}

// BroadcastMetrics records the canonical 8×8 broadcast over mc.Replicas
// Monte Carlo runs and merges the per-round series across replicas. This
// is the study behind cmd/figures -metrics: its JSONL/CSV export is the
// per-round observability artifact CI archives, and its per-round sums
// reconcile exactly with the engine's core.Counters totals at any worker
// count.
func BroadcastMetrics(mc sim.Config) (*metrics.Aggregate, error) {
	return sim.RunSeries(mc, func(_ int, seed uint64) (*metrics.TimeSeries, error) {
		ts, _, err := broadcastSeriesReplica(seed)
		return ts, err
	})
}
