package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/smc"
)

func TestRobustnessStudyShape(t *testing.T) {
	rows, err := RobustnessStudy([]int{0, 1, 3}, mc(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	get := func(p Protocol, dead int) RobustnessRow {
		for _, r := range rows {
			if r.Protocol == p && r.DeadTiles == dead {
				return r
			}
		}
		t.Fatalf("row (%v,%d) missing", p, dead)
		return RobustnessRow{}
	}

	// Healthy grid: everything delivers; XY at exactly the Manhattan
	// distance (10), gossip a bit above.
	for _, p := range []Protocol{ProtoGossip, ProtoDirected, ProtoXY} {
		if r := get(p, 0); r.DeliveryRate < 1 {
			t.Fatalf("%v healthy delivery rate %v", p, r.DeliveryRate)
		}
	}
	if xy := get(ProtoXY, 0); xy.Latency.Mean != 10 {
		t.Fatalf("XY healthy latency %v, want 10", xy.Latency.Mean)
	}

	// One dead tile: gossip barely notices; XY loses every run whose
	// fixed path crosses the crash (the 6x6 corner-to-corner XY path has
	// 9 interior tiles of 34 candidates => ~26% failures expected).
	xy1 := get(ProtoXY, 1)
	g1 := get(ProtoGossip, 1)
	if g1.DeliveryRate < 0.95 {
		t.Fatalf("gossip delivery with 1 dead tile = %v", g1.DeliveryRate)
	}
	if xy1.DeliveryRate > g1.DeliveryRate {
		t.Fatalf("XY (%v) outlived gossip (%v) under crashes", xy1.DeliveryRate, g1.DeliveryRate)
	}

	// Three dead tiles: the gap must be pronounced.
	xy3 := get(ProtoXY, 3)
	g3 := get(ProtoGossip, 3)
	if xy3.DeliveryRate >= g3.DeliveryRate {
		t.Fatalf("no robustness gap at 3 dead tiles: XY %v vs gossip %v",
			xy3.DeliveryRate, g3.DeliveryRate)
	}
	// Directed gossip keeps (most of) the robustness.
	d3 := get(ProtoDirected, 3)
	if d3.DeliveryRate < xy3.DeliveryRate {
		t.Fatalf("directed gossip (%v) less robust than XY (%v)", d3.DeliveryRate, xy3.DeliveryRate)
	}

	// Directed gossip is faster than pure gossip on the healthy grid.
	if get(ProtoDirected, 0).Latency.Mean >= get(ProtoGossip, 0).Latency.Mean {
		t.Fatal("directed gossip not faster than pure gossip")
	}
}

// TestRobustnessClaim states ext-robustness as verdicts over seeds: with
// 4 of the 6×6 grid's tiles crashed, gossip delivers corner to corner
// by round 120 with probability at least 0.85, and XY routing does not.
// Each leg runs the figure's own cell through smc.Check.
func TestRobustnessClaim(t *testing.T) {
	prop := smc.Delivered().By(robustnessRounds)
	for _, tc := range []struct {
		proto Protocol
		want  smc.Verdict
	}{
		{ProtoGossip, smc.Accepted},
		{ProtoXY, smc.Rejected},
	} {
		run, err := robustnessCell(tc.proto, 4)
		if err != nil {
			t.Fatal(err)
		}
		replica := func(_ int, seed uint64) (bool, error) {
			trial, err := run(seed, sim.Hooks{Record: true})
			if err != nil {
				return false, err
			}
			return prop.Eval(trial.Rec.Series()), nil
		}
		rep, err := smc.Check(prop, replica, smc.CheckConfig{
			Theta: 0.85, Delta: 0.05, Alpha: 0.01, Beta: 0.01, Seed: 2003,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %v", tc.proto, rep)
		if rep.Verdict != tc.want {
			t.Fatalf("%v: verdict %v, want %v", tc.proto, rep.Verdict, tc.want)
		}
	}
}

func TestMappingStudyShape(t *testing.T) {
	rows, err := MappingStudy(mc(10, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	center, corner := rows[0], rows[1]
	// The static communication-cost metric must agree with the measured
	// latency ordering: center placement wins both.
	if center.CommCost >= corner.CommCost {
		t.Fatalf("center comm cost %d not below corner %d", center.CommCost, corner.CommCost)
	}
	if center.Latency.Mean >= corner.Latency.Mean {
		t.Fatalf("center latency %v not below corner %v", center.Latency.Mean, corner.Latency.Mean)
	}
}

func TestGridSpreadSigmoid(t *testing.T) {
	rows, err := GridSpread(6, 0.75, mc(20, 13))
	if err != nil {
		t.Fatal(err)
	}
	// Monotone non-decreasing, saturating at 36 tiles.
	prev := 0.0
	for _, r := range rows {
		if r.AwareMean < prev-1e-9 {
			t.Fatalf("aware count decreased at round %d", r.Round)
		}
		prev = r.AwareMean
	}
	last := rows[len(rows)-1]
	if last.AwareMean < 35.5 {
		t.Fatalf("broadcast did not saturate: %v/36", last.AwareMean)
	}
	// Explosive middle phase: the spread reaches half the mesh within
	// ~1.5 diameters' worth of rounds.
	half := -1
	for _, r := range rows {
		if r.AwareMean >= 18 {
			half = r.Round
			break
		}
	}
	if half < 0 || half > 15 {
		t.Fatalf("half coverage at round %d", half)
	}
}

func TestBimodalDelivery(t *testing.T) {
	// Near the percolation threshold, per-run coverage over surviving
	// tiles is bimodal: "almost all or almost none" (§1.2, after Birman
	// et al.), with the low mode produced by crash partitioning.
	rows, err := BimodalStudy(0.40, mc(300, 31))
	if err != nil {
		t.Fatal(err)
	}
	var low, mid, high float64
	for _, r := range rows {
		switch {
		case r.CoverageHi <= 0.3:
			low += r.Fraction
		case r.CoverageLo >= 0.7:
			high += r.Fraction
		default:
			mid += r.Fraction
		}
	}
	if low+high < 0.7 {
		t.Fatalf("coverage not bimodal: low=%.2f mid=%.2f high=%.2f", low, mid, high)
	}
	if low < 0.03 || high < 0.3 {
		t.Fatalf("a mode is missing: low=%.2f high=%.2f", low, high)
	}
	if mid >= high {
		t.Fatalf("middle dominates: mid=%.2f high=%.2f", mid, high)
	}
}

func TestTTLStudyShape(t *testing.T) {
	rows, err := TTLStudy([]uint8{4, 8, 16, 32}, mc(30, 77))
	if err != nil {
		t.Fatal(err)
	}
	// Transmissions strictly increase with TTL; delivery rate is
	// non-decreasing, from near-zero (TTL 4 cannot cross 8 hops) to
	// near-one.
	for i := 1; i < len(rows); i++ {
		if rows[i].Transmissions.Mean <= rows[i-1].Transmissions.Mean {
			t.Fatalf("transmissions not increasing at TTL %d", rows[i].TTL)
		}
		if rows[i].DeliveryRate < rows[i-1].DeliveryRate-0.05 {
			t.Fatalf("delivery rate fell at TTL %d", rows[i].TTL)
		}
	}
	if rows[0].DeliveryRate > 0.2 {
		t.Fatalf("TTL 4 delivered %v of 8-hop unicasts", rows[0].DeliveryRate)
	}
	if rows[len(rows)-1].DeliveryRate < 0.95 {
		t.Fatalf("TTL 32 delivery rate %v", rows[len(rows)-1].DeliveryRate)
	}
}

func TestFECStudyShape(t *testing.T) {
	rows, err := FECStudy([]float64{0.001, 0.005, 0.02, 0.08}, mc(2000, 91))
	if err != nil {
		t.Fatal(err)
	}
	get := func(pb float64) FECRow {
		for _, r := range rows {
			if r.Pb == pb {
				return r
			}
		}
		t.Fatalf("row %v missing", pb)
		return FECRow{}
	}
	low := get(0.005)
	// At modest bit-error rates, SEC-DED rescues frames CRC discards.
	if low.FECSurvival <= low.CRCSurvival {
		t.Fatalf("pb=0.005: FEC %v not above CRC %v", low.FECSurvival, low.CRCSurvival)
	}
	// CRC never delivers corrupt data; at high error rates FEC blocks
	// silently miscorrect — the thesis' "FEC is less reliable than ARQ".
	high := get(0.08)
	if high.FECMiscorrect == 0 {
		t.Fatal("no silent FEC miscorrections even at pb=0.08")
	}
	if low.FECMiscorrect > high.FECMiscorrect {
		t.Fatal("miscorrection rate not growing with pb")
	}
	// Survival degrades monotonically for both.
	for i := 1; i < len(rows); i++ {
		if rows[i].CRCSurvival > rows[i-1].CRCSurvival+0.02 {
			t.Fatal("CRC survival not degrading")
		}
		if rows[i].FECSurvival > rows[i-1].FECSurvival+0.02 {
			t.Fatal("FEC survival not degrading")
		}
	}
}
