package pisum

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

func TestPartialSumConverges(t *testing.T) {
	// Midpoint rule: error is O(1/n²).
	for _, n := range []int{100, 10000} {
		got := PartialSum(1, n+1, n)
		if err := math.Abs(got - math.Pi); err > 1.0/float64(n) {
			t.Fatalf("n=%d: π estimate %v off by %v", n, got, err)
		}
	}
}

func TestPartialSumsCompose(t *testing.T) {
	const n = 1000
	whole := PartialSum(1, n+1, n)
	parts := PartialSum(1, 251, n) + PartialSum(251, 501, n) +
		PartialSum(501, 751, n) + PartialSum(751, n+1, n)
	if math.Abs(whole-parts) > 1e-12 {
		t.Fatalf("partial sums do not compose: %v vs %v", whole, parts)
	}
}

// standardSetup mirrors the thesis: 5x5 grid, master at the center tile,
// 8 slaves each duplicated.
func standardSetup(t *testing.T, cfg core.Config) (*core.Network, *App) {
	t.Helper()
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid := cfg.Topo.(*topology.Grid)
	master := grid.ID(2, 2)
	var slaves [][]packet.TileID
	free := []packet.TileID{}
	for i := 0; i < grid.Tiles(); i++ {
		if packet.TileID(i) != master {
			free = append(free, packet.TileID(i))
		}
	}
	for k := 0; k < 8; k++ {
		slaves = append(slaves, []packet.TileID{free[2*k], free[2*k+1]})
	}
	app, err := Setup(net, master, slaves, 8000)
	if err != nil {
		t.Fatal(err)
	}
	return net, app
}

func TestMasterSlaveFaultFree(t *testing.T) {
	grid := topology.NewGrid(5, 5)
	net, app := standardSetup(t, core.Config{
		Topo: grid, P: 0.5, TTL: core.DefaultTTL, MaxRounds: 100, Seed: 3,
	})
	res := net.Run()
	if !res.Completed {
		t.Fatalf("master-slave did not complete: %+v", res)
	}
	pi, err := app.Master.Pi()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi-ReferencePi(8000)) > 1e-12 {
		t.Fatalf("distributed π %v != serial %v", pi, ReferencePi(8000))
	}
	if math.Abs(pi-math.Pi) > 1e-4 {
		t.Fatalf("π estimate %v too far from π", pi)
	}
	// The thesis reports 6-9 rounds for p=0.5 on this workload; allow a
	// wider envelope but catch pathological latencies.
	if res.Rounds < 2 || res.Rounds > 30 {
		t.Fatalf("latency %d rounds out of plausible envelope", res.Rounds)
	}
}

func TestMasterSlaveFlooding(t *testing.T) {
	grid := topology.NewGrid(5, 5)
	net, app := standardSetup(t, core.Config{
		Topo: grid, P: 1, TTL: core.DefaultTTL, MaxRounds: 100, Seed: 4,
	})
	res := net.Run()
	if !res.Completed {
		t.Fatal("flooding run incomplete")
	}
	// Flooding: assignments go out in round 1 and travel ≤ 4 hops (5x5,
	// master center => max Manhattan 4); replies the same. The thesis
	// quotes 4 rounds for flooding; our worst tile pair gives ≤ 9.
	if res.Rounds > 9 {
		t.Fatalf("flooding latency %d rounds", res.Rounds)
	}
	pi, err := app.Master.Pi()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi-math.Pi) > 1e-4 {
		t.Fatalf("π = %v", pi)
	}
}

func TestDuplicationToleratesDeadSlaves(t *testing.T) {
	// Kill 2 tiles (never the master): with every slave duplicated, the
	// computation must still complete in the vast majority of runs —
	// both replicas dying is the only fatal case.
	grid := topology.NewGrid(5, 5)
	completed := 0
	const runs = 30
	for seed := uint64(0); seed < runs; seed++ {
		net, err := core.New(core.Config{
			Topo: grid, P: 0.75, TTL: core.DefaultTTL, MaxRounds: 100, Seed: seed,
			Fault: fault.Model{DeadTiles: 2, Protect: []packet.TileID{grid.ID(2, 2)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		master := grid.ID(2, 2)
		var slaves [][]packet.TileID
		var free []packet.TileID
		for i := 0; i < grid.Tiles(); i++ {
			if packet.TileID(i) != master {
				free = append(free, packet.TileID(i))
			}
		}
		for k := 0; k < 8; k++ {
			slaves = append(slaves, []packet.TileID{free[2*k], free[2*k+1]})
		}
		app, err := Setup(net, master, slaves, 800)
		if err != nil {
			t.Fatal(err)
		}
		if net.Run().Completed {
			completed++
			pi, err := app.Master.Pi()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(pi-math.Pi) > 1e-2 {
				t.Fatalf("seed %d: corrupted π %v", seed, pi)
			}
		}
	}
	if completed < runs*2/3 {
		t.Fatalf("only %d/%d duplicated runs completed", completed, runs)
	}
}

func TestReplicaResultsNotDoubleCounted(t *testing.T) {
	// Both replicas reply; the master must count each slave index once.
	grid := topology.NewGrid(5, 5)
	net, app := standardSetup(t, core.Config{
		Topo: grid, P: 1, TTL: core.DefaultTTL, MaxRounds: 60, Seed: 9,
	})
	if !net.Run().Completed {
		t.Fatal("incomplete")
	}
	pi, err := app.Master.Pi()
	if err != nil {
		t.Fatal(err)
	}
	// Double counting any partial sum would inflate π by ≥ π/8.
	if math.Abs(pi-math.Pi) > 0.01 {
		t.Fatalf("π = %v: replica double-counted?", pi)
	}
}

func TestPiBeforeDoneErrors(t *testing.T) {
	m := NewMaster([][]packet.TileID{{1}}, 100)
	if _, err := m.Pi(); err == nil {
		t.Fatal("Pi() before completion did not error")
	}
}

func TestSetupValidation(t *testing.T) {
	grid := topology.NewGrid(3, 3)
	net, err := core.New(core.Config{Topo: grid, P: 0.5, TTL: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Setup(net, 0, nil, 100); err == nil {
		t.Error("no slaves accepted")
	}
	if _, err := Setup(net, 0, [][]packet.TileID{{1}, {2}, {3}}, 2); err == nil {
		t.Error("fewer intervals than slaves accepted")
	}
	if _, err := Setup(net, 0, [][]packet.TileID{{0}}, 100); err == nil {
		t.Error("slave on master tile accepted")
	}
}

func TestMalformedResultIgnored(t *testing.T) {
	m := NewMaster([][]packet.TileID{{1}}, 100)
	m.Receive(nil, &packet.Packet{Kind: KindResult, Payload: []byte{1}})
	if m.Done() {
		t.Fatal("malformed result accepted")
	}
}

func TestWithUpsets(t *testing.T) {
	// 30% upsets: gossip's retransmissions still complete the app.
	grid := topology.NewGrid(5, 5)
	net, app := standardSetup(t, core.Config{
		Topo: grid, P: 0.75, TTL: core.DefaultTTL, MaxRounds: 200, Seed: 11,
		Fault: fault.Model{PUpset: 0.3},
	})
	res := net.Run()
	if !res.Completed {
		t.Fatalf("30%% upsets defeated the app: %+v", res)
	}
	pi, err := app.Master.Pi()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi-math.Pi) > 1e-3 {
		t.Fatalf("π corrupted by upsets: %v (CRC should have caught them)", pi)
	}
}
