package gossip

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestTheoreticalSpreadMonotone(t *testing.T) {
	curve := TheoreticalSpread(1000, 30)
	if curve[0] != 1 {
		t.Fatalf("I(0) = %v", curve[0])
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] && curve[i-1] < 999.9999 {
			t.Fatalf("I not strictly increasing at %d: %v -> %v", i, curve[i-1], curve[i])
		}
		if curve[i] > 1000 {
			t.Fatalf("I(%d) = %v exceeds n", i, curve[i])
		}
	}
}

func TestTheoreticalSpreadSaturates(t *testing.T) {
	// Fig. 3-1: in a 1000-node network, fewer than 20 rounds reach
	// everyone.
	curve := TheoreticalSpread(1000, 20)
	if last := curve[20]; last < 999 {
		t.Fatalf("I(20) = %v, want > 999 (Fig. 3-1 shape)", last)
	}
}

func TestTheoreticalSpreadExponentialPhase(t *testing.T) {
	// Early rounds nearly double the informed set: I(t+1)/I(t) ≈ 2 while
	// I << n.
	curve := TheoreticalSpread(100000, 10)
	for i := 0; i < 8; i++ {
		ratio := curve[i+1] / curve[i]
		if ratio < 1.9 || ratio > 2.0 {
			t.Fatalf("growth ratio at round %d = %v, want ~2", i, ratio)
		}
	}
}

func TestExpectedRounds(t *testing.T) {
	// log2(1000) + ln(1000) ≈ 9.97 + 6.91 ≈ 16.87.
	got := ExpectedRounds(1000)
	if math.Abs(got-16.87) > 0.05 {
		t.Fatalf("ExpectedRounds(1000) = %v", got)
	}
	if ExpectedRounds(1) != 0 || ExpectedRounds(0) != 0 {
		t.Fatal("degenerate n should give 0")
	}
}

func TestSimulateSpreadCompletes(t *testing.T) {
	r := rng.New(1)
	curve := SimulateSpread(1000, 50, r)
	if curve[len(curve)-1] != 1000 {
		t.Fatalf("spread did not complete: %v", curve[len(curve)-1])
	}
	// Fig. 3-1: under 20 rounds for n=1000 is typical; allow slack but
	// catch gross breakage.
	if len(curve)-1 > 30 {
		t.Fatalf("spread took %d rounds", len(curve)-1)
	}
}

func TestSimulateSpreadMonotone(t *testing.T) {
	r := rng.New(2)
	curve := SimulateSpread(500, 100, r)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("informed count decreased at round %d", i)
		}
		if curve[i] > 2*curve[i-1] {
			t.Fatalf("informed more than doubled at round %d: %d -> %d (push gossip can at most double)",
				i, curve[i-1], curve[i])
		}
	}
}

func TestSimulateMatchesTheory(t *testing.T) {
	// Average simulated curves should track the deterministic
	// approximation (Eq. 1) closely — "I(t) is very close to its
	// deterministic approximation ... with probability 1".
	const n, rounds, runs = 1000, 20, 100
	theory := TheoreticalSpread(n, rounds)
	sums := make([]float64, rounds+1)
	for seed := uint64(0); seed < runs; seed++ {
		curve := SimulateSpread(n, rounds, rng.New(seed))
		for i := range sums {
			if i < len(curve) {
				sums[i] += float64(curve[i])
			} else {
				sums[i] += float64(n)
			}
		}
	}
	for i := range sums {
		mean := sums[i] / runs
		// Within 10% of theory (or 10 nodes for the tiny early rounds).
		tol := math.Max(0.10*theory[i], 10)
		if math.Abs(mean-theory[i]) > tol {
			t.Fatalf("round %d: simulated mean %.1f vs theory %.1f", i, mean, theory[i])
		}
	}
}

func TestRoundsToInformNearPittel(t *testing.T) {
	const n = 1000
	var o stats.Online
	for seed := uint64(0); seed < 50; seed++ {
		rounds := RoundsToInform(n, 100, rng.New(seed))
		if rounds < 0 {
			t.Fatal("spread failed in 100 rounds")
		}
		o.Add(float64(rounds))
	}
	want := ExpectedRounds(n)
	if math.Abs(o.Mean()-want) > 3 {
		t.Fatalf("mean rounds %.2f vs Pittel estimate %.2f", o.Mean(), want)
	}
}

func TestRoundsToInformInsufficientBudget(t *testing.T) {
	if got := RoundsToInform(1000, 2, rng.New(1)); got != -1 {
		t.Fatalf("RoundsToInform with tiny budget = %d, want -1", got)
	}
}

func TestSimulateSpreadSingleNode(t *testing.T) {
	curve := SimulateSpread(1, 10, rng.New(1))
	if len(curve) != 1 || curve[0] != 1 {
		t.Fatalf("n=1 curve: %v", curve)
	}
}

func BenchmarkSimulateSpread1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SimulateSpread(1000, 50, rng.New(uint64(i)))
	}
}

func TestFloodSpreadDistIsDistribution(t *testing.T) {
	for _, tc := range []struct {
		n, rounds int
		p         float64
	}{
		{16, 0, 0.3}, {16, 3, 0.3}, {12, 5, 0.05}, {8, 4, 0.9}, {20, 2, 0.5},
	} {
		dist := FloodSpreadDist(tc.n, tc.p, tc.rounds)
		if len(dist) != tc.n+1 {
			t.Fatalf("n=%d: len %d", tc.n, len(dist))
		}
		if dist[0] != 0 {
			t.Errorf("n=%d p=%v T=%d: P[I=0] = %v, the initiator always knows", tc.n, tc.p, tc.rounds, dist[0])
		}
		var sum float64
		for k, v := range dist {
			if v < 0 {
				t.Errorf("n=%d p=%v T=%d: P[I=%d] = %v negative", tc.n, tc.p, tc.rounds, k, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d p=%v T=%d: distribution sums to %v", tc.n, tc.p, tc.rounds, sum)
		}
	}
}

// The mean of the exact chain must track the mean-field recursion: the
// recursion is the chain's conditional expectation iterated with the
// fluctuations dropped, so for small fabrics they agree to a few
// percent (exactly at round 0 and in the p→1 limit).
func TestFloodSpreadDistMeanNearMeanField(t *testing.T) {
	const n, p, rounds = 16, 0.3, 5
	mf := theoreticalFloodSpread(n, p, rounds)
	for T := 0; T <= rounds; T++ {
		dist := FloodSpreadDist(n, p, T)
		var mean float64
		for k, v := range dist {
			mean += float64(k) * v
		}
		if rel := math.Abs(mean-mf[T]) / mf[T]; rel > 0.08 {
			t.Errorf("T=%d: exact mean %v vs mean-field %v (rel %v)", T, mean, mf[T], rel)
		}
	}
}

func TestFloodSpreadDistDegenerateP(t *testing.T) {
	// p = 1: one round floods everything.
	dist := FloodSpreadDist(10, 1, 1)
	if dist[10] != 1 {
		t.Errorf("p=1 after one round: P[I=10] = %v, want 1", dist[10])
	}
	// p = 0: the rumor never moves.
	dist = FloodSpreadDist(10, 0, 7)
	if dist[1] != 1 {
		t.Errorf("p=0: P[I=1] = %v, want 1", dist[1])
	}
}

// One analytic point: after one round from a single initiator the
// increment is Binomial(n−1, p), so P[I(1) ≥ 1+j] is a binomial tail.
func TestFloodReachProbOneRoundBinomial(t *testing.T) {
	const n, p = 8, 0.3
	// P[I(1) >= 3] = P[Bin(7, 0.3) >= 2]
	var want float64
	for j := 2; j <= 7; j++ {
		want += binomCoeff(7, j) * math.Pow(p, float64(j)) * math.Pow(1-p, float64(7-j))
	}
	got := FloodReachProb(n, p, 3, 1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P[I(1) >= 3] = %v, want %v", got, want)
	}
	// Monotonicity and the trivial tails.
	if FloodReachProb(n, p, 0, 1) != 1 || FloodReachProb(n, p, 1, 0) != 1 {
		t.Error("reaching the initiator itself must be certain")
	}
	if FloodReachProb(n, p, n, 1) >= FloodReachProb(n, p, n, 4) {
		t.Error("reach probability must grow with the horizon")
	}
}

func binomCoeff(n, k int) float64 {
	c := 1.0
	for j := 0; j < k; j++ {
		c *= float64(n-j) / float64(j+1)
	}
	return c
}
