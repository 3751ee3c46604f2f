package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// This file holds the scenario harness the engine's differential tests
// share. A scenario is one engine configuration with its workload; a run
// of it records the complete observable outcome — counters, tallies and
// the whole-state snapshot bytes at every round barrier, what recording
// processes were handed (payloads included), aware tables, RNG states
// and, when an OnEvent listener is attached, the event log — and checks
// presentImpliesSeen and presentIsOneCopy at every barrier. Two runs that
// must agree are compared with compareRuns: hooked against hook-free
// (where the engine settles copies at the sender), straight against
// snapshot-resumed, settlement gate open against cleared.

// mailRec is one packet a recording process was handed: its tile, the
// round it read its mailbox in, and the message with its payload, so a
// run cannot get away with delivering the right ID with a corrupted
// body.
type mailRec struct {
	tile    packet.TileID
	round   int
	id      packet.MsgID
	payload string
}

// mailProc is a plain (non-Receiver) process that logs its mailbox every
// round. The scenario runners attach one to every other tile that has no
// process, so deliveries are read back without a Receiver, and the tiles
// between keep the process-less delivery path.
type mailProc struct{ log *[]mailRec }

func (mailProc) Init(*Ctx) {}

func (m mailProc) Round(ctx *Ctx) {
	for _, p := range ctx.Delivered() {
		*m.log = append(*m.log, mailRec{tile: ctx.Self(), round: ctx.Round(), id: p.ID, payload: string(p.Payload)})
	}
}

// attachMail gives every even tile without a process a mailProc logging
// into log.
func attachMail(n *Network, log *[]mailRec) {
	for i := 0; i < len(n.tiles); i += 2 {
		if n.tiles[i].process() == nil {
			n.Attach(packet.TileID(i), mailProc{log})
		}
	}
}

// barrierRec is a run's state at one round barrier: the counters, the
// tally (continued across a restore) and a hash of the snapshot bytes.
// Meshes beyond 64×64 hash their snapshot every eighth round and at the
// last one only: encoding a quarter-million tiles every round would be
// most of the sub-TTL suite's time.
type barrierRec struct {
	cnt              Counters
	created, expired int
	state            uint64
}

// runRecord is the full observable outcome of one run.
type runRecord struct {
	hooked   bool    // an OnEvent listener recorded events (throughout)
	events   []Event // the listener's log
	mail     []mailRec
	barriers []barrierRec
	cnt      Counters
	aware    []int
	awareAt  []bool
	rngs     []rng.Stream
	rounds   int
}

// barrier appends n's state at the round barrier it stands at, last
// being the run's final round; base is the tally of the network n was
// restored from, if any.
func (s *runRecord) barrier(tb testing.TB, n *Network, last int, base barrierRec) {
	tb.Helper()
	created, expired, _ := n.Tally()
	rec := barrierRec{cnt: n.Counters(), created: base.created + created, expired: base.expired + expired}
	if r := n.Round(); len(n.tiles) <= 4096 || r%8 == 0 || r == last {
		h := fnv.New64a()
		h.Write(snapshotBytes(tb, n))
		rec.state = h.Sum64()
	}
	s.barriers = append(s.barriers, rec)
}

// finish records n's final state: counters, round, the awareness of the
// messages ids names, and every tile's RNG state.
func (s *runRecord) finish(n *Network, ids []packet.MsgID) {
	s.cnt = n.Counters()
	s.rounds = n.Round()
	for _, id := range ids {
		s.aware = append(s.aware, n.Aware(id))
		for ti := range n.tiles {
			s.awareAt = append(s.awareAt, n.AwareAt(id, packet.TileID(ti)))
		}
	}
	for i := range n.tiles {
		s.rngs = append(s.rngs, n.tiles[i].rnd)
	}
}

// injection schedules one Inject call immediately before a given round.
type injection struct {
	beforeRound int
	src, dst    packet.TileID
	kind        packet.Kind
	payload     string
}

// scenario is one engine configuration to replay. cfg must return a
// fresh Config each call (hooks are attached per run); setup attaches
// processes, routers and forward limits.
type scenario struct {
	name   string
	cfg    func() Config
	setup  func(n *Network)
	inject []injection
	rounds int
	// bare attaches no recording processes.
	bare bool
}

// clusterTopo builds the Chapter 5 style two-cluster fabric: two
// side×side gossip grids (tiles 0..side²-1 and side²..2·side²-1) joined by
// a single bridge link between the last tile of the first and the first
// tile of the second.
func clusterTopo(side int) *topology.Graph {
	tiles := side * side
	g := topology.NewGraph(2 * tiles)
	link := func(a, b int) {
		if err := g.AddLink(packet.TileID(a), packet.TileID(b)); err != nil {
			panic(err)
		}
	}
	for c := 0; c < 2; c++ {
		base := c * tiles
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				id := base + y*side + x
				if x < side-1 {
					link(id, id+1)
				}
				if y < side-1 {
					link(id, id+side)
				}
			}
		}
	}
	link(tiles-1, tiles)
	return g
}

func scenarios() []scenario {
	return []scenario{
		{
			// Analytic fault mix on a grid: upsets, overflows, crashed
			// tiles and links all change counters and RNG consumption.
			name: "grid-analytic-faults",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(12, 12), P: 0.45, TTL: 8,
					MaxRounds: 1000, Seed: 11,
					Fault: fault.Model{
						PUpset: 0.1, POverflow: 0.05, PLinkCrash: 0.05,
						DeadTiles: 9, Protect: []packet.TileID{0, 102, 114, 143},
					},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 114, dst: packet.Broadcast},
				{beforeRound: 2, src: 0, dst: packet.Broadcast},
				{beforeRound: 4, src: 143, dst: 102, kind: 1, payload: "mid-run"},
			},
			rounds: 40,
		},
		{
			// Synchronization skew: SyncSlip spreads arrivals over future
			// rounds, exercising the arrival-ring merge across rounds.
			name: "grid-sync-skew",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(13, 13), P: 0.6, TTL: 10,
					MaxRounds: 1000, Seed: 7,
					Fault: fault.Model{SigmaSync: 1.2},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 84, dst: packet.Broadcast, payload: "skewed"},
			},
			rounds: 40,
		},
		{
			// Literal upsets: wire frames, CRC rejections and the frame
			// pool.
			name: "grid-literal-upsets",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(16, 12), P: 0.7, TTL: 9,
					MaxRounds: 1000, Seed: 21,
					Fault: fault.Model{LiteralUpsets: true, PUpset: 0.15},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 56, dst: packet.Broadcast, payload: "literal payload"},
				{beforeRound: 3, src: 135, dst: 56, kind: 2, payload: "return traffic"},
			},
			rounds: 40,
		},
		{
			// PortWeight biasing plus the buffer-capacity fault
			// (POverflow, the Chapter 2 p_overflow): overflow events and
			// weighted RNG draws must replay exactly.
			name: "torus-portweight-bufcap",
			cfg: func() Config {
				return Config{
					Topo: topology.NewTorus(16, 16), P: 0.8, TTL: 12,
					MaxRounds: 1000, Seed: 5,
					Fault: fault.Model{POverflow: 0.1},
					PortWeight: func(from, to packet.TileID, p *packet.Packet) float64 {
						if to < from {
							return 0.5
						}
						return 1.0
					},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 0, dst: packet.Broadcast},
				{beforeRound: 1, src: 85, dst: packet.Broadcast},
				{beforeRound: 2, src: 170, dst: packet.Broadcast},
			},
			rounds: 30,
		},
		{
			// Three crossing broadcasts at TTL 5: most receptions are
			// dedup hits, and copies expire while duplicates of them are
			// still arriving.
			name: "grid-dedup-hits",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(12, 12), P: 0.5, TTL: 5,
					MaxRounds: 1000, Seed: 3,
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 0, dst: packet.Broadcast},
				{beforeRound: 0, src: 143, dst: packet.Broadcast},
				{beforeRound: 1, src: 127, dst: packet.Broadcast},
			},
			rounds: 25,
		},
		{
			// 256 tiles = 4 occupancy words. The fault mix keeps occupancy
			// bits churning at the word boundaries.
			name: "grid16-aligned-lanes",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(16, 16), P: 0.5, TTL: 9,
					MaxRounds: 1000, Seed: 41,
					Fault: fault.Model{PUpset: 0.05, SigmaSync: 0.8},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 0, dst: packet.Broadcast, payload: "aligned"},
				{beforeRound: 2, src: 255, dst: 0, kind: 1, payload: "far corner"},
				{beforeRound: 6, src: 128, dst: packet.Broadcast},
			},
			rounds: 35,
		},
		{
			// 576 tiles = 9 occupancy words, a grid whose rows straddle
			// word boundaries unevenly.
			name: "grid24-uneven-lanes",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(24, 24), P: 0.5, TTL: 9,
					MaxRounds: 1000, Seed: 41,
					Fault: fault.Model{PUpset: 0.05, SigmaSync: 0.8},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 0, dst: packet.Broadcast, payload: "uneven"},
				{beforeRound: 2, src: 325, dst: 250, kind: 1, payload: "across three words"},
				{beforeRound: 6, src: 288, dst: packet.Broadcast},
			},
			rounds: 35,
		},
		{
			// Batch kernel, mask-lane sampler: P >= 1/16 on a degree-4
			// grid draws one 64-bit mask per message. Faults keep the
			// downstream transmit/receive draws in the mix.
			name: "grid-batch-mask",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(18, 18), P: 0.4, TTL: 9,
					MaxRounds: 1000, Seed: 51, BatchDraws: true,
					Fault: fault.Model{PUpset: 0.08, SigmaSync: 0.6},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 171, dst: packet.Broadcast, payload: "mask"},
				{beforeRound: 3, src: 323, dst: 250, kind: 1},
			},
			rounds: 35,
		},
		{
			// Batch kernel, geometric-skip sampler: P below the mask
			// floor with several buffered messages per tile (three
			// broadcasts from each of two tiles facing each other across
			// a word boundary, long TTL) makes the flattened-trial skip
			// path the cost winner; thin tiles fall back to the exact
			// per-port draws, so both batch branches run.
			name: "grid-batch-skip",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(12, 12), P: 0.03, TTL: 14,
					MaxRounds: 1000, Seed: 52, BatchDraws: true,
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 126, dst: packet.Broadcast, payload: "skip-a"},
				{beforeRound: 0, src: 126, dst: packet.Broadcast, payload: "skip-b"},
				{beforeRound: 0, src: 126, dst: packet.Broadcast, payload: "skip-c"},
				{beforeRound: 1, src: 129, dst: packet.Broadcast, payload: "skip-d"},
				{beforeRound: 1, src: 129, dst: packet.Broadcast, payload: "skip-e"},
				{beforeRound: 1, src: 129, dst: packet.Broadcast, payload: "skip-f"},
				{beforeRound: 2, src: 66, dst: packet.Broadcast, payload: "skip-g"},
			},
			rounds: 40,
		},
		{
			// Two 9×9 gossip clusters (tiles 0-80 and 81-161) bridged by
			// deterministic routers with a serializing forward limit — the
			// round-robin cursor path.
			name: "cluster-routers-fwdlimit",
			cfg: func() Config {
				return Config{
					Topo: clusterTopo(9), P: 0.6, TTL: 14,
					MaxRounds: 1000, Seed: 13,
				}
			},
			setup: func(n *Network) {
				n.SetRouter(80, func(p *packet.Packet) []packet.TileID {
					return []packet.TileID{81, 79, 71}
				})
				n.SetRouter(81, func(p *packet.Packet) []packet.TileID {
					return []packet.TileID{80, 82, 90}
				})
				n.SetForwardLimit(80, 1)
				n.SetForwardLimit(81, 1)
			},
			inject: []injection{
				{beforeRound: 0, src: 60, dst: 101, kind: 1, payload: "cross-cluster"},
				{beforeRound: 2, src: 92, dst: 70, kind: 1, payload: "backhaul"},
				{beforeRound: 5, src: 62, dst: packet.Broadcast},
			},
			rounds: 50,
		},
		{
			// StopSpreadOnDelivery writes cross-tile tombstones mid-phase
			// that later tiles of the same round must observe.
			name: "stop-spread-on-delivery",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(12, 12), P: 0.7, TTL: 12,
					StopSpreadOnDelivery: true, MaxRounds: 1000, Seed: 17,
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 0, dst: 52, kind: 1, payload: "killed early"},
				{beforeRound: 1, src: 100, dst: 139, kind: 1},
			},
			rounds: 30,
		},
		{
			// Attached processes, including a Receiver (which creates
			// messages mid-phase 4) and a mid-run Broadcast.
			name: "grid-processes-receiver",
			cfg: func() Config {
				return Config{
					Topo: topology.NewGrid(12, 12), P: 0.6, TTL: 10,
					MaxRounds: 1000, Seed: 29,
				}
			},
			setup: func(n *Network) {
				n.Attach(100, &senderProc{dst: 130, payload: []byte("to sink")})
				n.Attach(130, &sinkProc{})
				n.Attach(65, &broadcastOnce{})
			},
			rounds: 30,
		},
	}
}

// build makes the scenario's network: with an OnEvent listener recording
// into snap when hooked, its setup applied and recording processes
// attached (unless bare). restore, if set, builds it from a checkpoint
// instead of New.
func (sc scenario) build(tb testing.TB, snap *runRecord, restore []byte) *Network {
	tb.Helper()
	cfg := sc.cfg()
	if snap.hooked {
		cfg.OnEvent = func(ev Event) { snap.events = append(snap.events, ev) }
	}
	var n *Network
	var err error
	if restore == nil {
		n, err = New(cfg)
	} else {
		n, err = Restore(bytes.NewReader(restore), cfg)
	}
	if err != nil {
		tb.Fatalf("%s: %v", sc.name, err)
	}
	if sc.setup != nil {
		sc.setup(n) // routers and forward limits are the caller's to re-apply
	}
	if !sc.bare {
		attachMail(n, &snap.mail)
	}
	return n
}

// step runs the scenario's rounds [n.Round(), until) on n, injecting on
// schedule, and records every round barrier into snap, checked against
// presentImpliesSeen and presentIsOneCopy.
func (sc scenario) step(tb testing.TB, snap *runRecord, n *Network, until int, base barrierRec, ids []packet.MsgID) []packet.MsgID {
	tb.Helper()
	for round := n.Round(); round < until; round++ {
		for _, in := range sc.inject {
			if in.beforeRound != round {
				continue
			}
			var payload []byte
			if in.payload != "" {
				payload = []byte(in.payload)
			}
			ids = append(ids, mustInject(tb, n, in.src, in.dst, in.kind, payload))
		}
		n.Step()
		if err := presentImpliesSeen(n); err != nil {
			tb.Fatalf("%s: %v", sc.name, err)
		}
		if err := presentIsOneCopy(n); err != nil {
			tb.Fatalf("%s: %v", sc.name, err)
		}
		snap.barrier(tb, n, sc.rounds, base)
	}
	return ids
}

// runScenario executes one scenario and returns the full observable
// record. A run asked to listen records its events; otherwise it runs
// hook-free.
func runScenario(tb testing.TB, sc scenario, listen bool) runRecord {
	tb.Helper()
	snap := runRecord{hooked: listen}
	n := sc.build(tb, &snap, nil)
	snap.finish(n, sc.step(tb, &snap, n, sc.rounds, barrierRec{}, nil))
	return snap
}

// compareRuns fails tb unless got left the record want did; event logs
// are compared when both runs recorded one.
func compareRuns(tb testing.TB, label string, want, got runRecord) {
	tb.Helper()
	switch {
	case want.hooked && got.hooked && !reflect.DeepEqual(got.events, want.events):
		tb.Fatalf("%s: event log diverged: %s", label, firstEventDiff(want.events, got.events))
	case !reflect.DeepEqual(got.barriers, want.barriers):
		for r := range min(len(got.barriers), len(want.barriers)) {
			if got.barriers[r] != want.barriers[r] {
				tb.Fatalf("%s: state diverged at the end of round %d\nwant: %+v\ngot:  %+v",
					label, r+1, want.barriers[r], got.barriers[r])
			}
		}
		tb.Fatalf("%s: %d round barriers, want %d", label, len(got.barriers), len(want.barriers))
	case !reflect.DeepEqual(got.mail, want.mail):
		tb.Fatalf("%s: mailbox log diverged\nwant: %v\ngot:  %v", label, want.mail, got.mail)
	case got.cnt != want.cnt:
		tb.Fatalf("%s: counters diverged\nwant: %+v\ngot:  %+v", label, want.cnt, got.cnt)
	case !reflect.DeepEqual(got.aware, want.aware):
		tb.Fatalf("%s: Aware counts diverged\nwant: %v\ngot:  %v", label, want.aware, got.aware)
	case !reflect.DeepEqual(got.awareAt, want.awareAt):
		tb.Fatalf("%s: AwareAt tables diverged", label)
	case !reflect.DeepEqual(got.rngs, want.rngs):
		tb.Fatalf("%s: tile RNG states diverged", label)
	case got.rounds != want.rounds:
		tb.Fatalf("%s: rounds %d != %d", label, got.rounds, want.rounds)
	}
}

// TestHookFreeRunsMatchHooked pins what a listener may not change: for
// every scenario, a hook-free run — where the engine settles upsets at
// the sender and skips every emit — must leave the record of the run with
// an OnEvent listener: same counters, tallies and snapshot bytes at every
// round barrier, same mailbox contents (payloads included), same aware
// tables and RNG states.
func TestHookFreeRunsMatchHooked(t *testing.T) {
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			want := runScenario(t, sc, true)
			if len(want.events) == 0 || len(want.mail) == 0 {
				t.Fatalf("scenario produced no events or no deliveries — not a meaningful comparison")
			}
			compareRuns(t, "hook-free", want, runScenario(t, sc, false))
		})
	}
}

// firstEventDiff renders the first position where two event logs differ.
func firstEventDiff(want, got []Event) string {
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			return fmt.Sprintf("index %d: want %+v, got %+v", i, want[i], got[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d, got %d", len(want), len(got))
}

// TestCountersExactBetweenRounds pins Counters between rounds: what
// Counters reports outside any phase must be exact, including the upsets
// a hook-free network settles at the sender (counted in the round they
// were sent, the round they would have arrived). Two injections at one
// source count nothing — an Inject is no transmission — and the hook-free
// network must then match its hooked twin round by round.
func TestCountersExactBetweenRounds(t *testing.T) {
	build := func(hook func(Event)) *Network {
		n := mustNet(t, Config{
			Topo: topology.NewGrid(16, 16), P: 0.6, TTL: 6,
			MaxRounds: 100, Seed: 0xC0DE, Fault: fault.Model{PUpset: 0.1},
			OnEvent: hook,
		})
		mustInject(t, n, 5, packet.Broadcast, 0, []byte("first"))
		mustInject(t, n, 5, packet.Broadcast, 0, []byte("second"))
		return n
	}
	hooked, got := build(func(Event) {}), build(nil)
	if cnt := got.Counters(); cnt != (Counters{}) {
		t.Fatalf("counters %+v before any Step, want zero", cnt)
	}
	for r := 0; r <= 10; r++ {
		if got.Counters() != hooked.Counters() {
			t.Fatalf("after %d rounds: counters %+v, hooked twin %+v", r, got.Counters(), hooked.Counters())
		}
		hooked.Step()
		got.Step()
	}
	if got.Counters().UpsetsDetected == 0 {
		t.Fatal("no upset was detected: the settlement path went unexercised")
	}
}

// TestOneLaneHooksSeeLiveState pins the contract Config.OnEvent states:
// a listener fires mid-phase, so a hook reading network state sees it
// live. A P=1 broadcast from a corner reaches its two neighbours in round
// 1; the OnEvent hook reads Aware and Counters at each delivery and must
// see the count rise between them (2 then 3 aware tiles, 1 then 2
// deliveries).
func TestOneLaneHooksSeeLiveState(t *testing.T) {
	var n *Network
	var id packet.MsgID
	var aware, delivered []int
	n = mustNet(t, Config{
		Topo: topology.NewGrid(16, 16), P: 1, TTL: 4, MaxRounds: 10, Seed: 3,
		OnEvent: func(ev Event) {
			if ev.Kind == EvDeliver && ev.Round == 1 {
				aware = append(aware, n.Aware(id))
				delivered = append(delivered, n.Counters().Deliveries)
			}
		},
	})
	id = mustInject(t, n, 0, packet.Broadcast, 0, nil)
	n.Step()
	if !reflect.DeepEqual(aware, []int{2, 3}) || !reflect.DeepEqual(delivered, []int{1, 2}) {
		t.Fatalf("round-1 delivery hooks saw Aware %v and Deliveries %v, want live [2 3] and [1 2]", aware, delivered)
	}
}
