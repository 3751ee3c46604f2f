package experiments

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// mc builds the n-replica sequential-by-default sim config the shape
// tests run under (Workers 0 = GOMAXPROCS; results are worker-count
// independent either way).
func mc(n int, seed uint64) sim.Config {
	return sim.Config{Replicas: n, Seed: seed}
}

func TestFig31ShapesMatchPaper(t *testing.T) {
	rows, err := Fig31(mc(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Fig. 3-1: all 1000 nodes reached in under 20 rounds, sim tracking
	// theory.
	last := rows[len(rows)-1]
	if last.SimMean < 999 || last.Theory < 999 {
		t.Fatalf("spread incomplete at round 20: %+v", last)
	}
	for _, r := range rows {
		tol := math.Max(0.15*r.Theory, 12)
		if math.Abs(r.SimMean-r.Theory) > tol {
			t.Fatalf("round %d: sim %0.f vs theory %.0f", r.Round, r.SimMean, r.Theory)
		}
	}
}

func TestFig33Walkthrough(t *testing.T) {
	res, err := Fig33(3)
	if err != nil {
		t.Fatal(err)
	}
	// Delivery can never beat the Manhattan distance, and with p=0.5 on
	// a 4×4 grid it lands within a handful of extra rounds (thesis: the
	// consumer receives in round 3 under flooding).
	if res.DeliveryRound < res.ManhattanDistance {
		t.Fatalf("delivery round %d below Manhattan %d", res.DeliveryRound, res.ManhattanDistance)
	}
	if res.DeliveryRound > res.ManhattanDistance+10 {
		t.Fatalf("delivery round %d implausibly late", res.DeliveryRound)
	}
	if len(res.AwarePerRound) == 0 {
		t.Fatal("no spread trace")
	}
	for i := 1; i < len(res.AwarePerRound); i++ {
		if res.AwarePerRound[i] < res.AwarePerRound[i-1] {
			t.Fatal("aware count decreased")
		}
	}
}

func TestFig44Shapes(t *testing.T) {
	for _, app := range []CaseApp{MasterSlave, FFT2} {
		rows, err := Fig44(app, []int{0, 2}, mc(4, 10))
		if err != nil {
			t.Fatal(err)
		}
		byKey := map[[2]float64]Repeated{}
		for _, r := range rows {
			byKey[[2]float64{r.P, float64(r.DeadTiles)}] = r.Result
		}
		flood := byKey[[2]float64{1, 0}]
		p50 := byKey[[2]float64{0.5, 0}]
		p25 := byKey[[2]float64{0.25, 0}]
		// Latency ordering: flooding fastest; p=0.25 slowest.
		if !(flood.Rounds.Mean <= p50.Rounds.Mean && p50.Rounds.Mean < p25.Rounds.Mean) {
			t.Fatalf("%s latency ordering broken: %v / %v / %v",
				app, flood.Rounds.Mean, p50.Rounds.Mean, p25.Rounds.Mean)
		}
		// Energy ordering: flooding most expensive; p=0.5 roughly half.
		if !(flood.EnergyPerBit.Mean > p50.EnergyPerBit.Mean &&
			p50.EnergyPerBit.Mean > p25.EnergyPerBit.Mean) {
			t.Fatalf("%s energy ordering broken", app)
		}
		ratio := p50.EnergyPerBit.Mean / flood.EnergyPerBit.Mean
		if ratio < 0.3 || ratio > 0.75 {
			t.Fatalf("%s p=0.5/flooding energy ratio %.2f, want ≈0.5", app, ratio)
		}
		// Crash tolerance: 2 dead tiles leave completion high and
		// latency close (thesis: "the number of tile failures does not
		// have a big impact on latency").
		dead2 := byKey[[2]float64{0.75, 2}]
		if dead2.CompletionRate < 0.5 {
			t.Fatalf("%s completion with 2 dead tiles = %v", app, dead2.CompletionRate)
		}
	}
}

func TestFig45Shape(t *testing.T) {
	cells, err := Fig45([]int{0}, []float64{0, 0.5, 0.8}, mc(4, 20))
	if err != nil {
		t.Fatal(err)
	}
	get := func(pu float64) Fig45Cell {
		for _, c := range cells {
			if c.PUpset == pu {
				return c
			}
		}
		t.Fatalf("cell %v missing", pu)
		return Fig45Cell{}
	}
	clean, mid, high := get(0), get(0.5), get(0.8)
	// Latency grows with upsets, sharply above 0.5 (Fig. 4-5), but the
	// application still terminates ("the algorithm does not give up").
	if !(clean.Result.Rounds.Mean < mid.Result.Rounds.Mean && mid.Result.Rounds.Mean < high.Result.Rounds.Mean) {
		t.Fatalf("upset latency not increasing: %v / %v / %v",
			clean.Result.Rounds.Mean, mid.Result.Rounds.Mean, high.Result.Rounds.Mean)
	}
	if high.Result.CompletionRate < 0.75 {
		t.Fatalf("80%% upsets should still terminate: rate %v", high.Result.CompletionRate)
	}
	if high.Result.Rounds.Mean < 2*clean.Result.Rounds.Mean {
		t.Fatalf("80%% upsets latency %v not >2x clean %v", high.Result.Rounds.Mean, clean.Result.Rounds.Mean)
	}
	// The CRC-reject counter must track the upset sweep: heavy upsets
	// discard many receptions, the clean cell none.
	if high.Result.CRCRejects.Mean <= clean.Result.CRCRejects.Mean {
		t.Fatalf("CRC rejects not increasing with upsets: %v vs %v",
			high.Result.CRCRejects.Mean, clean.Result.CRCRejects.Mean)
	}
}

func TestFig46Shape(t *testing.T) {
	res, err := Fig46(mc(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	// The headline claims: NoC latency is an order of magnitude better
	// (thesis: 11x); NoC energy stays within about one order of the bus
	// (thesis: +5% — but see EXPERIMENTS.md: that figure implies a
	// spread of ~9 link traversals per message, which a real gossip
	// cannot reach; ours spends ~9x); and the energy×delay product
	// favors the NoC by a wide margin (thesis: 7e-12 vs 133e-12, ≈19x).
	if res.LatencyRatio < 4 {
		t.Fatalf("bus/NoC latency ratio %.1f, want >> 1", res.LatencyRatio)
	}
	if res.EnergyRatio > 12 {
		t.Fatalf("NoC/bus energy ratio %.2f, want within ~one order", res.EnergyRatio)
	}
	if res.NoCAvg.EnergyDelayJsPB >= res.Bus.EnergyDelayJsPB {
		t.Fatalf("EDP: NoC %.3g not better than bus %.3g",
			res.NoCAvg.EnergyDelayJsPB, res.Bus.EnergyDelayJsPB)
	}
}

func TestFig48Shape(t *testing.T) {
	cells, err := Fig48([]float64{1, 0.5}, []float64{0, 0.6}, mc(2, 40))
	if err != nil {
		t.Fatal(err)
	}
	get := func(p, pu float64) Fig48Cell {
		for _, c := range cells {
			if c.P == p && c.PUpset == pu {
				return c
			}
		}
		t.Fatalf("cell (%v,%v) missing", p, pu)
		return Fig48Cell{}
	}
	best := get(1, 0)
	worse := get(0.5, 0.6)
	if best.CompletionRate < 1 {
		t.Fatalf("clean flooding MP3 failed: %v", best.CompletionRate)
	}
	if worse.CompletionRate > 0 && worse.Latency.Mean <= best.Latency.Mean {
		t.Fatalf("degraded corner (%.0f rounds) not slower than best (%.0f)",
			worse.Latency.Mean, best.Latency.Mean)
	}
}

func TestFig49Linearity(t *testing.T) {
	cells, err := Fig48([]float64{0.25, 0.5, 1}, []float64{0}, mc(2, 50))
	if err != nil {
		t.Fatal(err)
	}
	e := map[float64]float64{}
	for _, c := range cells {
		e[c.P] = c.EnergyJ.Mean
	}
	if !(e[0.25] < e[0.5] && e[0.5] < e[1]) {
		t.Fatalf("energy not increasing in p: %v", e)
	}
	// "increases almost linearly with p": doubling p lands within a
	// factor ~[1.3, 3] of doubling energy.
	r1 := e[0.5] / e[0.25]
	r2 := e[1] / e[0.5]
	for _, r := range []float64{r1, r2} {
		if r < 1.3 || r > 3.2 {
			t.Fatalf("energy growth per p-doubling = %v, want ≈2", r)
		}
	}
	// And a least-squares fit is near-linear.
	xs := []float64{0.25, 0.5, 1}
	ys := []float64{e[0.25], e[0.5], e[1]}
	if _, _, rsq := stats.LinReg(xs, ys); rsq < 0.9 {
		t.Fatalf("energy-vs-p fit R² = %v", rsq)
	}
}

func TestFig410Shapes(t *testing.T) {
	sweeps, err := Fig410([]float64{0, 0.4}, nil, mc(2, 60))
	if err != nil {
		t.Fatal(err)
	}
	over := sweeps.Overflow
	if over[0].CompletionRate < 1 || over[1].CompletionRate < 0.5 {
		t.Fatalf("moderate overflow fatal: %+v", over)
	}
	// Latency roughly flat under moderate drops (within 2.5x).
	if over[1].Latency.Mean > 2.5*over[0].Latency.Mean {
		t.Fatalf("overflow latency blew up: %v vs %v", over[1].Latency.Mean, over[0].Latency.Mean)
	}

	sweeps, err = Fig410(nil, []float64{0, 1.5}, mc(3, 61))
	if err != nil {
		t.Fatal(err)
	}
	syncRows := sweeps.Sync
	if syncRows[1].CompletionRate < 1 {
		t.Fatalf("sync errors prevented termination: %+v", syncRows[1])
	}
	// Sync errors add delay/jitter but the app always terminates.
	if syncRows[1].Latency.Mean < syncRows[0].Latency.Mean {
		t.Fatalf("σ=1.5 faster than σ=0?")
	}
}

func TestFig411Shapes(t *testing.T) {
	sweeps, err := Fig410([]float64{0, 0.5}, nil, mc(2, 70))
	if err != nil {
		t.Fatal(err)
	}
	over := sweeps.Overflow
	// Bit-rate sustained at 50% drops: within 25% of the clean rate
	// (thesis: "sustainable with as much as 60% of the packets
	// dropped").
	if over[1].BitrateBps.Mean < 0.75*over[0].BitrateBps.Mean {
		t.Fatalf("bitrate collapsed at 50%% drops: %v vs %v",
			over[1].BitrateBps.Mean, over[0].BitrateBps.Mean)
	}

	sweeps, err = Fig410(nil, []float64{0, 1.5}, mc(2, 71))
	if err != nil {
		t.Fatal(err)
	}
	syncRows := sweeps.Sync
	if syncRows[1].BitrateBps.Mean < 0.75*syncRows[0].BitrateBps.Mean {
		t.Fatalf("bitrate collapsed under sync errors")
	}
	// The error bars (jitter) grow with σ.
	if syncRows[1].JitterRounds.Mean <= syncRows[0].JitterRounds.Mean {
		t.Fatalf("jitter did not grow with σ: %v vs %v",
			syncRows[1].JitterRounds.Mean, syncRows[0].JitterRounds.Mean)
	}
}

func TestFig53Shape(t *testing.T) {
	rows, err := Fig53(mc(2, 80))
	if err != nil {
		t.Fatal(err)
	}
	flat, hier, busRow := rows[0], rows[1], rows[2]
	if !flat.CompletedAll || !hier.CompletedAll || !busRow.CompletedAll {
		t.Fatalf("incomplete diversity runs: %+v", rows)
	}
	if hier.Transmissions.Mean >= flat.Transmissions.Mean {
		t.Fatalf("hierarchical tx %v not below flat %v",
			hier.Transmissions.Mean, flat.Transmissions.Mean)
	}
	if flat.Latency.Mean >= hier.Latency.Mean {
		t.Fatalf("flat latency %v not below hierarchical %v",
			flat.Latency.Mean, hier.Latency.Mean)
	}
	if busRow.Latency.Mean <= hier.Latency.Mean {
		t.Fatalf("bus latency %v not worst", busRow.Latency.Mean)
	}
	if busRow.Transmissions.Mean <= hier.Transmissions.Mean {
		t.Fatalf("bus tx %v not above hierarchical %v",
			busRow.Transmissions.Mean, hier.Transmissions.Mean)
	}
}
