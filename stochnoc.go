// Package stochnoc is an open-source reproduction of "On-Chip Stochastic
// Communication" (Dumitraş & Mărculescu, DATE 2003 / CMU MS thesis 2003):
// a fault-tolerant communication paradigm for networks-on-chip in which
// tiles disseminate packets with a randomized gossip protocol instead of
// routing them.
//
// The package is a facade over the implementation packages:
//
//   - a deterministic round-based NoC simulator running the thesis'
//     gossip algorithm (Fig. 3-4) with the full Chapter 2 failure model
//     (tile/link crashes, CRC-detected data upsets, buffer overflows,
//     mixed-clock synchronization errors);
//   - the evaluation workloads: Producer–Consumer, Master–Slave π,
//     parallel 2-D FFT, a six-stage perceptual (MP3-like) audio encoder
//     pipeline, and acoustic beamforming;
//   - a shared-bus baseline and the Chapter 5 on-chip-diversity
//     architectures;
//   - per-figure experiment harnesses (see cmd/figures and
//     EXPERIMENTS.md).
//
// # Quick start
//
//	grid := stochnoc.NewGrid(4, 4)
//	net, err := stochnoc.New(stochnoc.Config{
//	        Topo: grid, P: 0.5, TTL: stochnoc.DefaultTTL, Seed: 1,
//	})
//	if err != nil { ... }
//	net.Attach(5, myProducer)   // any stochnoc.Process
//	net.Attach(11, myConsumer)
//	result := net.Run()
//
// See examples/ for complete programs.
package stochnoc

import (
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Core protocol types (package internal/core).
type (
	// Config parameterizes a stochastic-communication network.
	Config = core.Config
	// Network is a simulated stochastically-communicating NoC.
	Network = core.Network
	// Process is an IP core mapped onto a tile.
	Process = core.Process
	// Ctx is the per-round view a Process has of its tile.
	Ctx = core.Ctx
	// Completer marks Processes that detect application completion.
	Completer = core.Completer
	// Receiver marks Processes that take deliveries at arrival instant.
	Receiver = core.Receiver
	// Result summarizes a run.
	Result = core.Result
	// Counters aggregates a run's observable events.
	Counters = core.Counters
)

// Packet-level types (package internal/packet).
type (
	// Packet is one message traveling the NoC.
	Packet = packet.Packet
	// TileID identifies a tile.
	TileID = packet.TileID
	// MsgID is a network-unique message identity.
	MsgID = packet.MsgID
	// Kind tags a packet with an application message class.
	Kind = packet.Kind
)

// Fault model (package internal/fault).
type (
	// FaultModel is the Chapter 2 failure model.
	FaultModel = fault.Model
)

// Topology types (package internal/topology).
type (
	// Topology describes an interconnect fabric.
	Topology = topology.Topology
	// Grid is the rectangular tile mesh of Fig. 1-1.
	Grid = topology.Grid
	// Graph is a general adjacency-list fabric.
	Graph = topology.Graph
)

// Energy types (package internal/energy).
type (
	// Technology holds electrical parameters of an interconnect.
	Technology = energy.Technology
	// Accounting accumulates a run's traffic for Eq. 3.
	Accounting = energy.Accounting
)

// Monte Carlo runner types (package internal/sim). The runner executes
// independent replicas over a bounded worker pool; replica seeds derive
// from the master seed by index, so results are identical for every
// worker count.
type (
	// SimConfig sizes a Monte Carlo batch (Replicas, Workers, Seed).
	SimConfig = sim.Config
	// SimCounts holds one replica's protocol event totals, one field
	// per event kind, counted by the engine itself: no Config.OnEvent
	// hook is needed to fill them.
	SimCounts = sim.Counts
	// ReplicaMetrics is one replica's standard measurement record.
	ReplicaMetrics = sim.Metrics
	// SimAggregate summarizes ReplicaMetrics across a batch.
	SimAggregate = sim.Aggregate
)

// MonteCarlo runs body once per replica across the configured worker
// pool and returns the results in replica order. The replica index — not
// the scheduling order — selects both the derived seed and the result
// slot, so output is bit-identical for any Workers setting.
func MonteCarlo[T any](cfg SimConfig, body func(replica int, seed uint64) (T, error)) ([]T, error) {
	return sim.Run(cfg, body)
}

// MonteCarloMetrics is MonteCarlo specialized to the standard metrics
// record, aggregated into mean/stddev/CI summaries.
func MonteCarloMetrics(cfg SimConfig, body func(replica int, seed uint64) (ReplicaMetrics, error)) (SimAggregate, error) {
	return sim.RunMetrics(cfg, body)
}

// SimSeeds returns the n per-replica seeds the runner derives from a
// master seed (prefix-stable: growing n never changes earlier seeds).
func SimSeeds(master uint64, n int) []uint64 { return sim.Seeds(master, n) }

// Broadcast addresses a message to every tile.
const Broadcast = packet.Broadcast

// DefaultTTL is a reasonable message lifetime for 4x4/5x5 grids.
const DefaultTTL = core.DefaultTTL

// Published 0.25 µm technology parameters (§4.1.4).
var (
	// NoCLink025 is a tile-to-tile link: 381 MHz, 2.4e-10 J/bit.
	NoCLink025 = energy.NoCLink025
	// Bus025 is the chip-length shared bus: 43 MHz, 21.6e-10 J/bit.
	Bus025 = energy.Bus025
)

// New builds a synchronous stochastic-communication network.
func New(cfg Config) (*Network, error) { return core.New(cfg) }

// NewGrid returns a width×height tile mesh.
func NewGrid(width, height int) *Grid { return topology.NewGrid(width, height) }

// NewTorus returns a mesh with wraparound links.
func NewTorus(width, height int) *Grid { return topology.NewTorus(width, height) }

// NewFullyConnected returns the complete graph on n tiles (§3.1).
func NewFullyConnected(n int) *Graph { return topology.NewFullyConnected(n) }

// NewRing returns a cycle on n tiles.
func NewRing(n int) *Graph { return topology.NewRing(n) }
