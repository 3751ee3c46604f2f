package stochnoc_test

import (
	"fmt"

	stochnoc "repro"
)

// ExampleNew shows the smallest end-to-end simulation: flood one message
// across a 4×4 NoC and watch it arrive in exactly its Manhattan distance.
func ExampleNew() {
	grid := stochnoc.NewGrid(4, 4)
	net, err := stochnoc.New(stochnoc.Config{
		Topo: grid, P: 1, TTL: stochnoc.DefaultTTL, MaxRounds: 50, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	id, _ := net.Inject(5, 11, 1, []byte("rumor"))
	// Tile 11 knows the rumor from the round it is delivered there.
	for !net.AwareAt(id, 11) {
		net.Step()
	}
	fmt.Printf("Manhattan distance %d, delivered in round %d\n",
		grid.Manhattan(5, 11), net.Round())
	// Output: Manhattan distance 3, delivered in round 3
}

// ExampleNetwork_Inject demonstrates fault tolerance: the same unicast
// delivered despite every transmission having a 30% chance of being
// scrambled — the CRC discards bad copies, redundancy supplies good ones.
func ExampleNetwork_Inject() {
	grid := stochnoc.NewGrid(4, 4)
	net, err := stochnoc.New(stochnoc.Config{
		Topo: grid, P: 0.75, TTL: 16, MaxRounds: 100, Seed: 3,
		Fault: stochnoc.FaultModel{PUpset: 0.3, LiteralUpsets: true},
	})
	if err != nil {
		panic(err)
	}
	id, _ := net.Inject(0, 15, 1, []byte("payload"))
	net.Drain(100)
	fmt.Printf("delivered: %v, CRC caught upsets: %v\n",
		net.AwareAt(id, 15), net.Counters().UpsetsDetected > 0)
	// Output: delivered: true, CRC caught upsets: true
}

// ExampleReferencePi shows the quadrature the Master–Slave case study
// distributes.
func ExampleReferencePi() {
	fmt.Printf("%.6f\n", stochnoc.ReferencePi(1000000))
	// Output: 3.141593
}

// ExampleMonteCarlo runs a replica batch through the parallel Monte
// Carlo runner. Worker count never changes the numbers: replica seeds
// derive from the master seed by replica index.
func ExampleMonteCarlo() {
	run := func(workers int) []int {
		rounds, err := stochnoc.MonteCarlo(
			stochnoc.SimConfig{Replicas: 4, Workers: workers, Seed: 11},
			func(replica int, seed uint64) (int, error) {
				grid := stochnoc.NewGrid(4, 4)
				net, err := stochnoc.New(stochnoc.Config{
					Topo: grid, P: 0.75, TTL: 16, MaxRounds: 100, Seed: seed,
				})
				if err != nil {
					return 0, err
				}
				net.Inject(0, 15, 1, []byte("payload"))
				net.Drain(100)
				return net.Round(), nil
			})
		if err != nil {
			panic(err)
		}
		return rounds
	}
	sequential, parallel := run(1), run(4)
	same := true
	for i := range sequential {
		same = same && sequential[i] == parallel[i]
	}
	fmt.Printf("1 worker == 4 workers: %v\n", same)
	// Output: 1 worker == 4 workers: true
}
