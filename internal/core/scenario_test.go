package core

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// This file holds the scenario harness behind the variant table
// (diff_test.go). A scenario is one engine configuration
// with its workload; a run of it records the complete observable outcome —
// counters, tallies and a hash of the whole-state snapshot payload at
// every round barrier, what recording processes were handed (payloads
// included), aware tables, RNG states and, when an OnEvent listener is
// attached, the event log and the Aware count of every issued message at
// every barrier — and checks presentImpliesSeen and presentIsOneCopy at
// every barrier. A variant's run is judged against the baseline's by
// compareRuns, under the variant's equivalence.
//
// Run: go test -run 'Test(Differential|RecycleDifferential|HookFree|SnapshotResume|SubTTL|DuplicateElision|UpsetSettlement|RecycleIsRelabelling)' ./internal/core/

// mailRec is one packet a recording process was handed: its tile, the
// round it was delivered in, and the message with its payload, so a run
// cannot get away with delivering the right ID with a corrupted body.
type mailRec struct {
	tile    packet.TileID
	round   int
	id      packet.MsgID
	payload string
}

// mailProc is a listening process that logs every packet its Receiver is
// handed. The scenario runners attach one to every other tile that has no
// process, so deliveries are read back and fill mailboxes, and the tiles
// between keep the process-less delivery path.
type mailProc struct{ log *[]mailRec }

func (mailProc) Init(*Ctx)  {}
func (mailProc) Round(*Ctx) {}

func (m mailProc) Receive(ctx *Ctx, p *packet.Packet) {
	*m.log = append(*m.log, mailRec{tile: ctx.tile.id, round: ctx.Round(), id: p.ID, payload: string(p.Payload)})
}

// attachMail gives every even tile without a process a mailProc logging
// into log.
func attachMail(n *Network, log *[]mailRec) {
	for i := 0; i < len(n.tiles); i += 2 {
		if n.process(&n.tiles[i]) == nil {
			n.Attach(packet.TileID(i), mailProc{log})
		}
	}
}

// barrierRec is a run's state at one round barrier: the counters, the
// tally (continued across a restore) and a hash of the snapshot payload
// (EncodeState), seeded by stateSeed.
// Meshes beyond 64×64 hash their snapshot every eighth round and at the
// last one only: encoding a quarter-million tiles every round would be
// most of the sub-TTL suite's time.
type barrierRec struct {
	cnt              Counters
	created, expired int
	state            uint64
}

var stateSeed = maphash.MakeSeed()

// runRecord is the full observable outcome of one run.
type runRecord struct {
	hooked   bool    // an OnEvent listener recorded events (throughout)
	events   []Event // the listener's log
	scanned  int     // events already searched for EvCreated
	created  []packet.MsgID
	issued   [][]int // per barrier, Aware of each of created
	mail     []mailRec
	barriers []barrierRec
	cnt      Counters
	aware    []int
	awareAt  []bool
	rngs     []rng.Stream
	rounds   int
	// elide and settle are Network.elideDup and settleUpsets as New (or
	// Restore) computed them, before any variant cleared one.
	elide, settle bool
	// reused reports a run on a network Reset from one whose message
	// table held rows of the same width, which the run then reuses.
	reused bool
}

// barrier appends n's state at the round barrier it stands at, last
// being the run's final round; base is the tally of the network n was
// restored from, if any. A hooked run also adds the messages the events
// since the last barrier created and samples Aware for every one so far.
func (s *runRecord) barrier(tb testing.TB, n *Network, last int, base barrierRec) {
	tb.Helper()
	created, expired, _ := n.Tally()
	rec := barrierRec{cnt: n.Counters(), created: base.created + created, expired: base.expired + expired}
	if r := n.Round(); len(n.tiles) <= 4096 || r%8 == 0 || r == last {
		w := snapshot.NewWriter()
		n.EncodeState(w)
		rec.state = maphash.Bytes(stateSeed, w.Bytes())
	}
	s.barriers = append(s.barriers, rec)
	if !s.hooked {
		return
	}
	for ; s.scanned < len(s.events); s.scanned++ {
		if ev := s.events[s.scanned]; ev.Kind == EvCreated {
			s.created = append(s.created, ev.Msg)
		}
	}
	row := make([]int, len(s.created))
	for i, id := range s.created {
		row[i] = n.Aware(id)
	}
	s.issued = append(s.issued, row)
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
			// Degree 69 on the complete fabric: phase 3 draws each
			// message's coins as two masks (64 ports, then 5), and with no
			// upsets to draw they are drawn ahead of the copies. Crashed
			// links and tiles leave dead ports in both chunks.
			name: "complete70-clean",
			cfg: func() Config {
				return Config{
					Topo: topology.NewFullyConnected(70), P: 0.06, TTL: 6,
					MaxRounds: 1000, Seed: 61,
					Fault: fault.Model{PLinkCrash: 0.05, DeadTiles: 4, Protect: []packet.TileID{0, 69}},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 0, dst: packet.Broadcast, payload: "wide"},
				{beforeRound: 2, src: 69, dst: 3, kind: 1, payload: "across"},
				{beforeRound: 4, src: 35, dst: packet.Broadcast},
			},
			rounds: 25,
		},
		{
			// The same fabric with upsets: each coin is followed by its
			// copy's upset draw, across the 64-port boundary.
			name: "complete70-upsets",
			cfg: func() Config {
				return Config{
					Topo: topology.NewFullyConnected(70), P: 0.06, TTL: 6,
					MaxRounds: 1000, Seed: 62,
					Fault: fault.Model{PUpset: 0.15, PLinkCrash: 0.05, Protect: []packet.TileID{0, 69}},
				}
			},
			inject: []injection{
				{beforeRound: 0, src: 69, dst: packet.Broadcast, payload: "wide"},
				{beforeRound: 2, src: 0, dst: 66, kind: 1, payload: "across"},
				{beforeRound: 4, src: 35, dst: packet.Broadcast},
			},
			rounds: 25,
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

// build makes the scenario's network under variant v: its config edit
// applied, with an OnEvent listener recording into rec when hooked, its
// setup applied, recording processes attached (unless bare) and its gate
// cleared. restore, if set, builds it from a checkpoint instead of New;
// a row that reuses networks Resets the one it holds, if any.
func (sc scenario) build(tb testing.TB, rec *runRecord, restore []byte, v variant) *Network {
	tb.Helper()
	cfg := sc.cfg()
	if v.cfg != nil {
		v.cfg(&cfg)
	}
	if rec.hooked {
		cfg.OnEvent = func(ev Event) { rec.events = append(rec.events, ev) }
	}
	var n *Network
	var err error
	switch {
	case restore != nil:
		n, err = Restore(bytes.NewReader(restore), cfg)
	case v.reuse != nil && *v.reuse != nil:
		n = *v.reuse
		rec.reused = len(n.tbl.present) > 1 && n.tbl.words == (cfg.Topo.Tiles()+63)/64
		err = n.Reset(cfg)
	default:
		n, err = New(cfg)
	}
	if err != nil {
		tb.Fatalf("%s: %v", sc.name, err)
	}
	if sc.setup != nil {
		sc.setup(n) // routers and forward limits are the caller's to re-apply
	}
	if !sc.bare {
		attachMail(n, &rec.mail)
	}
	rec.elide, rec.settle = n.elideDup, n.settleUpsets
	if v.gate != nil {
		v.gate(n)
	}
	return n
}

// step runs the scenario's rounds [n.Round(), until) on n, injecting on
// schedule, and records every round barrier into rec, checked against
// presentImpliesSeen and presentIsOneCopy.
func (sc scenario) step(tb testing.TB, rec *runRecord, n *Network, until int, base barrierRec, ids []packet.MsgID) []packet.MsgID {
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
		rec.barrier(tb, n, sc.rounds, base)
	}
	return ids
}

// run replays sc under variant v, listening or hook-free, and returns the
// full observable record. With k > 0 the run is interrupted at round k,
// snapshotted and finished on a network restored from the snapshot: the
// record then spans both sides of the checkpoint (round barriers, mailbox
// and event logs concatenate, and the tally continues across the
// restore). The first barrier record is the network as built, before any
// injection. A row that reuses networks runs on the network its previous
// run ended with, Reset, and leaves its own final network for the next.
func (sc scenario) run(tb testing.TB, v variant, listen bool, k int) runRecord {
	tb.Helper()
	rec := runRecord{hooked: listen}
	n := sc.build(tb, &rec, nil, v)
	var ids []packet.MsgID
	var base barrierRec
	rec.barrier(tb, n, sc.rounds, base) // the network as built
	if k > 0 {
		ids = sc.step(tb, &rec, n, k, base, nil)
		base.created, base.expired, _ = n.Tally()
		if n = sc.build(tb, &rec, snapshotBytes(tb, n), v); n.Round() != k {
			tb.Fatalf("%s: restored network at round %d, want %d", sc.name, n.Round(), k)
		}
	}
	rec.finish(n, sc.step(tb, &rec, n, sc.rounds, base, ids))
	if v.reuse != nil {
		*v.reuse = n
	}
	return rec
}

// runScenario executes one scenario unedited, listening or hook-free.
func runScenario(tb testing.TB, sc scenario, listen bool) runRecord {
	tb.Helper()
	return sc.run(tb, variant{}, listen, 0)
}

// runResumedScenario executes one scenario unedited, interrupted and
// resumed at round k, listening on both sides or on neither.
func runResumedScenario(tb testing.TB, sc scenario, k int, listen bool) runRecord {
	tb.Helper()
	return sc.run(tb, variant{}, listen, k)
}

// compareRuns fails tb unless got left the record want did; event logs
// and the per-barrier Aware of issued messages are compared when both
// runs recorded them.
func compareRuns(tb testing.TB, label string, want, got runRecord) {
	tb.Helper()
	switch {
	case want.hooked && got.hooked && !reflect.DeepEqual(got.events, want.events):
		tb.Fatalf("%s: event log diverged: %s", label, firstDiff(want.events, got.events))
	case want.hooked && got.hooked && !reflect.DeepEqual(got.issued, want.issued):
		tb.Fatalf("%s: Aware by issue order diverged at barrier %s", label, firstDiff(want.issued, got.issued))
	case !reflect.DeepEqual(got.barriers, want.barriers):
		tb.Fatalf("%s: state diverged at barrier %s", label, firstDiff(want.barriers, got.barriers))
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

// relabel returns a copy of a hooked record with every message ID
// replaced by its issue index (its place in EvCreated order; Msg 0, a
// scrambled frame, stays 0) and with what recycling is documented to
// change cleared: the snapshot hashes (the payload carries the flag, the
// generations and the free list), Counters.Retired and the per-tile
// awareness of retired messages (AwareAt).
func relabel(tb testing.TB, r runRecord) runRecord {
	tb.Helper()
	index := map[packet.MsgID]packet.MsgID{0: 0}
	for i, id := range r.created {
		index[id] = packet.MsgID(i + 1)
	}
	byIssue := func(id packet.MsgID) packet.MsgID {
		i, ok := index[id]
		if !ok {
			tb.Fatalf("message %#x appears without an EvCreated", id)
		}
		return i
	}
	r.events = append([]Event(nil), r.events...)
	for i := range r.events {
		r.events[i].Msg = byIssue(r.events[i].Msg)
	}
	r.mail = append([]mailRec(nil), r.mail...)
	for i := range r.mail {
		r.mail[i].id = byIssue(r.mail[i].id)
	}
	r.barriers = append([]barrierRec(nil), r.barriers...)
	for i := range r.barriers {
		r.barriers[i].state = 0
		r.barriers[i].cnt.Retired = 0
	}
	r.cnt.Retired = 0
	r.awareAt = nil
	return r
}

// firstDiff renders the first index at which two logs differ (barrier i
// is the end of round i, barrier 0 the network as built).
func firstDiff[T any](want, got []T) string {
	for i := range min(len(want), len(got)) {
		if !reflect.DeepEqual(want[i], got[i]) {
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
// deliveries). At each EvTransmit of the whole run it reads the energy
// tally, which must have risen by exactly one since the previous one: a
// per-message tally, as the hook-free forwarding loop keeps, would jump.
func TestOneLaneHooksSeeLiveState(t *testing.T) {
	var n *Network
	var id packet.MsgID
	var aware, delivered []int
	transmits, lastTx := 0, 0
	n = mustNet(t, Config{
		Topo: topology.NewGrid(16, 16), P: 1, TTL: 4, MaxRounds: 10, Seed: 3,
		OnEvent: func(ev Event) {
			switch {
			case ev.Kind == EvDeliver && ev.Round == 1:
				aware = append(aware, n.Aware(id))
				delivered = append(delivered, n.Counters().Deliveries)
			case ev.Kind == EvTransmit:
				tx := n.Counters().Energy.Transmissions
				if tx != lastTx+1 {
					t.Fatalf("EvTransmit %d in round %d saw %d transmissions, want live %d", transmits, ev.Round, tx, lastTx+1)
				}
				transmits, lastTx = transmits+1, tx
			}
		},
	})
	id = mustInject(t, n, 0, packet.Broadcast, 0, nil)
	n.Step()
	if !reflect.DeepEqual(aware, []int{2, 3}) || !reflect.DeepEqual(delivered, []int{1, 2}) {
		t.Fatalf("round-1 delivery hooks saw Aware %v and Deliveries %v, want live [2 3] and [1 2]", aware, delivered)
	}
	for range 3 {
		n.Step()
	}
	if got := n.Counters().Energy.Transmissions; transmits == 0 || got != transmits {
		t.Fatalf("%d EvTransmit events for %d transmissions", transmits, got)
	}
}
