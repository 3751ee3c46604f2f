package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestMetricsBroadcastSumsReconcile pins the cross-replica invariant
// behind `cmd/figures -metrics`: for every event series, the per-round
// Sum fields of the merged Aggregate, summed over rounds, equal the
// engine's core.Counters totals summed over replicas — exactly, and
// regardless of how many workers ran the replicas.
func TestMetricsBroadcastSumsReconcile(t *testing.T) {
	const replicas = 5
	const seed = 2003
	// Serial reference pass: run each replica by hand, keeping the
	// engine's own Counters next to the recorded series.
	seeds := sim.Seeds(seed, replicas)
	series := make([]*metrics.TimeSeries, replicas)
	var want core.Counters
	for i, s := range seeds {
		ts, cnt, err := broadcastSeriesReplica(s)
		if err != nil {
			t.Fatal(err)
		}
		series[i] = ts
		want.Energy.Transmissions += cnt.Energy.Transmissions
		want.UpsetsDetected += cnt.UpsetsDetected
		want.OverflowDrops += cnt.OverflowDrops
		want.Deliveries += cnt.Deliveries
	}
	agg, err := metrics.Merge(series)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(id metrics.IntID) int {
		var total float64
		for _, s := range agg.Ints[id] {
			total += s.Sum
		}
		return int(total)
	}
	if got := sum(metrics.Transmissions); got != want.Energy.Transmissions {
		t.Errorf("transmissions: aggregate sum %d, core.Counters total %d", got, want.Energy.Transmissions)
	}
	if got := sum(metrics.CRCRejects); got != want.UpsetsDetected {
		t.Errorf("crc_rejects: aggregate sum %d, core.Counters total %d", got, want.UpsetsDetected)
	}
	if got := sum(metrics.OverflowDrops); got != want.OverflowDrops {
		t.Errorf("overflow_drops: aggregate sum %d, core.Counters total %d", got, want.OverflowDrops)
	}
	if got := sum(metrics.Deliveries); got != want.Deliveries {
		t.Errorf("deliveries: aggregate sum %d, core.Counters total %d", got, want.Deliveries)
	}

	// The Monte Carlo runner path must reproduce the serial reference
	// bit for bit at any worker count.
	for _, workers := range []int{1, 3} {
		got, err := BroadcastMetrics(sim.Config{Replicas: replicas, Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, agg) {
			t.Errorf("BroadcastMetrics(workers=%d) differs from the serial merge", workers)
		}
	}
}
