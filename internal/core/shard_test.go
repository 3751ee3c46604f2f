package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// This file pins the sharded engine's one hard promise: Config.Shards is
// bit-identical to the sequential engine at any shard count. Every
// scenario below runs once sequentially and once per shard count, and the
// complete observable record — event sequence, delivery sequence,
// counters, aware tables — must match exactly. A shard owns whole 64-tile
// words, so every fabric here has at least two of them (128 tiles), and
// checkLanes refuses a run that asked for shards and got the sequential
// engine.

// deliverRec is one OnDeliver invocation, payload included so a sharded
// run cannot get away with delivering the right ID with a corrupted body.
type deliverRec struct {
	tile    packet.TileID
	round   int
	id      packet.MsgID
	payload string
}

// shardSnapshot is the full observable outcome of one run.
type shardSnapshot struct {
	events   []Event
	delivers []deliverRec
	cnt      Counters
	aware    []int
	awareAt  []bool
	rounds   int
}

// injection schedules one Inject call immediately before a given round.
type injection struct {
	beforeRound int
	src, dst    packet.TileID
	kind        packet.Kind
	payload     string
}

// shardScenario is one engine configuration to replay at several shard
// counts. cfg must return a fresh Config each call (hooks are attached
// per run); setup attaches processes, routers and forward limits.
type shardScenario struct {
	name   string
	cfg    func() Config
	setup  func(n *Network)
	inject []injection
	rounds int
	// mayClamp marks the clamp tests: asking for more shards than the
	// fabric has whole words, down to the sequential engine, is their point.
	mayClamp bool
	// quiet runs the scenario with no OnEvent listener, so the record's
	// event log stays empty and the engine may settle at the sender what
	// only a listener would see.
	quiet bool
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

func shardScenarios() []shardScenario {
	return []shardScenario{
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
			// Literal upsets: wire frames, CRC rejections and the
			// per-lane frame pools (frames migrate between shards).
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
			// 256 tiles = 4 words, split evenly by 2 and 4 shards (7 is
			// clamped to 4). The fault mix keeps occupancy bits churning
			// at the lane-boundary words.
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
			// 576 tiles = 9 words: every invariance shard count gets its
			// lanes in full, and 4 and 7 split the words unevenly (3+2+2+2;
			// 2+2+1+1+1+1+1), the partition laneFor has to invert.
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
				{beforeRound: 2, src: 325, dst: 250, kind: 1, payload: "across three lanes"},
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
			// the lane boundary, long TTL) makes the flattened-trial skip
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
			// StopSpreadOnDelivery writes cross-tile tombstones mid-phase,
			// which forces the sequential phase-4 fallback — the result
			// must still be identical.
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
			// Attached processes, including a Receiver (which also forces
			// the sequential phase-4 fallback) and a mid-run Broadcast.
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

// checkLanes is the guard every scenario engine passes through
// (runShardScenario and both sides of runResumedScenario): the engine must
// run on exactly the lanes New's clamp promises — min(shards, tiles/64),
// the sequential engine below two — and a scenario that asked for shards
// must get more than one. Without the second half a fabric too small for
// its shard counts (or a later, tighter clamp) would quietly turn the
// invariance suite into sequential-vs-sequential.
func checkLanes(tb testing.TB, sc shardScenario, n *Network, shards int) {
	tb.Helper()
	tiles := n.Topology().Tiles()
	want := min(shards, tiles/64)
	if want < 2 {
		want = 1
	}
	if got := n.Shards(); got != want {
		tb.Fatalf("%s: Shards=%d on %d tiles runs %d lanes, want %d", sc.name, shards, tiles, got, want)
	}
	if shards > 1 && want == 1 && !sc.mayClamp {
		tb.Fatalf("%s: asked for %d shards on %d tiles — under two whole words, so this would compare the sequential engine with itself",
			sc.name, shards, tiles)
	}
}

// runShardScenario executes one scenario at the given shard count and
// returns the full observable record. Every round barrier is checked
// against presentImpliesSeen and presentIsOneCopy.
func runShardScenario(tb testing.TB, sc shardScenario, shards int) shardSnapshot {
	tb.Helper()
	var snap shardSnapshot
	cfg := sc.cfg()
	cfg.Shards = shards
	if !sc.quiet {
		cfg.OnEvent = func(ev Event) { snap.events = append(snap.events, ev) }
	}
	cfg.OnDeliver = func(tl packet.TileID, p *packet.Packet, round int) {
		snap.delivers = append(snap.delivers, deliverRec{
			tile: tl, round: round, id: p.ID, payload: string(p.Payload),
		})
	}
	n, err := New(cfg)
	if err != nil {
		tb.Fatalf("%s/shards=%d: %v", sc.name, shards, err)
	}
	checkLanes(tb, sc, n, shards)
	if sc.setup != nil {
		sc.setup(n)
	}
	var ids []packet.MsgID
	for round := 0; round < sc.rounds; round++ {
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
			tb.Fatalf("%s/shards=%d: %v", sc.name, shards, err)
		}
		if err := presentIsOneCopy(n); err != nil {
			tb.Fatalf("%s/shards=%d: %v", sc.name, shards, err)
		}
	}
	snap.cnt = n.Counters()
	snap.rounds = n.Round()
	tiles := n.Topology().Tiles()
	for _, id := range ids {
		snap.aware = append(snap.aware, n.Aware(id))
		for ti := 0; ti < tiles; ti++ {
			snap.awareAt = append(snap.awareAt, n.AwareAt(id, packet.TileID(ti)))
		}
	}
	return snap
}

// TestShardCountInvariance is the sharded engine's contract test: for
// every scenario, runs at shard counts 2, 4 and 7 (as many of them as the
// fabric has whole words for, never fewer than two) must be bit-identical
// to the sequential run — same event sequence, same delivery sequence
// (payloads included), same counters, same aware tables, round by round.
// CI runs this test under -race, which also exercises the engine's
// synchronization claims (tile-local writes, atomic aware counts, barrier
// ordering).
func TestShardCountInvariance(t *testing.T) {
	for _, sc := range shardScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			want := runShardScenario(t, sc, 1)
			if len(want.events) == 0 {
				t.Fatalf("scenario produced no events — not a meaningful invariance check")
			}
			for _, shards := range []int{2, 4, 7} {
				got := runShardScenario(t, sc, shards)
				if !reflect.DeepEqual(got.events, want.events) {
					t.Fatalf("shards=%d: event log diverged: %s",
						shards, firstEventDiff(want.events, got.events))
				}
				if !reflect.DeepEqual(got.delivers, want.delivers) {
					t.Fatalf("shards=%d: delivery log diverged\nseq: %v\npar: %v",
						shards, want.delivers, got.delivers)
				}
				if got.cnt != want.cnt {
					t.Fatalf("shards=%d: counters diverged\nseq: %+v\npar: %+v",
						shards, want.cnt, got.cnt)
				}
				if !reflect.DeepEqual(got.aware, want.aware) {
					t.Fatalf("shards=%d: Aware counts diverged\nseq: %v\npar: %v",
						shards, want.aware, got.aware)
				}
				if !reflect.DeepEqual(got.awareAt, want.awareAt) {
					t.Fatalf("shards=%d: AwareAt tables diverged", shards)
				}
				if got.rounds != want.rounds {
					t.Fatalf("shards=%d: rounds %d != %d", shards, got.rounds, want.rounds)
				}
			}
		})
	}
}

// firstEventDiff renders the first position where two event logs differ.
func firstEventDiff(seq, par []Event) string {
	n := len(seq)
	if len(par) < n {
		n = len(par)
	}
	for i := 0; i < n; i++ {
		if seq[i] != par[i] {
			return fmt.Sprintf("index %d: seq %+v != par %+v", i, seq[i], par[i])
		}
	}
	return fmt.Sprintf("lengths differ: seq %d, par %d", len(seq), len(par))
}

// TestShardsClampedToTiles pins the clamp: more shards than tiles must
// behave (and the run must still match the sequential engine).
func TestShardsClampedToTiles(t *testing.T) {
	sc := shardScenario{
		name: "clamp",
		cfg: func() Config {
			return Config{Topo: topology.NewGrid(2, 2), P: 1, TTL: 4, MaxRounds: 100, Seed: 1}
		},
		inject:   []injection{{beforeRound: 0, src: 0, dst: packet.Broadcast}},
		rounds:   8,
		mayClamp: true,
	}
	want := runShardScenario(t, sc, 1)
	got := runShardScenario(t, sc, 64) // 64 shards, 4 tiles
	if !reflect.DeepEqual(got.events, want.events) || got.cnt != want.cnt {
		t.Fatal("over-sharded run diverged from sequential")
	}
}

// TestShardsClampedToWords pins the whole-word rule: a shard owns whole
// 64-tile words, so New grants at most tiles/64 of the shards asked for
// and falls back to the sequential engine below two. The effective counts are spelled out (runShardScenario checks
// the formula; this checks the numbers), and every run, clamped or not,
// must match the sequential one.
func TestShardsClampedToWords(t *testing.T) {
	asked := []int{2, 3, 64}
	for _, c := range []struct {
		tiles int
		want  [3]int // effective shard count per entry of asked
	}{
		{64, [3]int{1, 1, 1}},
		{127, [3]int{1, 1, 1}},
		{128, [3]int{2, 2, 2}},
		{200, [3]int{2, 3, 3}},
		{4096, [3]int{2, 3, 64}},
	} {
		var net *Network
		sc := shardScenario{
			name: fmt.Sprintf("clamp-%d", c.tiles),
			cfg: func() Config {
				return Config{Topo: topology.NewRing(c.tiles), P: 0.7, TTL: 12, MaxRounds: 100, Seed: 5}
			},
			setup: func(n *Network) { net = n },
			inject: []injection{
				{beforeRound: 0, src: 0, dst: packet.Broadcast, payload: "wraps the ring seam"},
				{beforeRound: 1, src: packet.TileID(c.tiles / 2), dst: packet.Broadcast},
				{beforeRound: 3, src: packet.TileID(c.tiles - 1), dst: 5, kind: 1},
			},
			rounds:   24,
			mayClamp: true,
		}
		want := runShardScenario(t, sc, 1)
		for i, shards := range asked {
			got := runShardScenario(t, sc, shards)
			if net.Shards() != c.want[i] {
				t.Errorf("%d tiles, Shards=%d: engine runs %d shards, want %d", c.tiles, shards, net.Shards(), c.want[i])
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d tiles, Shards=%d diverged from sequential: %s",
					c.tiles, shards, firstEventDiff(want.events, got.events))
			}
		}
	}
}

// TestCountersExactBetweenRounds pins Counters between rounds: whatever
// the lane count, what Counters reports outside any phase must be exact.
// Two injections at one source, on a two-lane 16×16 mesh and on an 8×8
// mesh whose four requested shards clamp to one lane, count nothing — an
// Inject is no transmission — and each network must then match its
// sequential twin round by round.
func TestCountersExactBetweenRounds(t *testing.T) {
	for _, c := range []struct{ side, shards, lanes int }{{16, 2, 2}, {8, 4, 1}} {
		build := func(shards int) *Network {
			n := mustNet(t, Config{
				Topo: topology.NewGrid(c.side, c.side), P: 0.6, TTL: 6,
				MaxRounds: 100, Seed: 0xC0DE, Shards: shards,
			})
			mustInject(t, n, 5, packet.Broadcast, 0, []byte("first"))
			mustInject(t, n, 5, packet.Broadcast, 0, []byte("second"))
			return n
		}
		seq, got := build(0), build(c.shards)
		if got.Shards() != c.lanes {
			t.Fatalf("%dx%d Shards=%d: runs %d lanes, want %d", c.side, c.side, c.shards, got.Shards(), c.lanes)
		}
		if cnt := got.Counters(); cnt != (Counters{}) {
			t.Fatalf("%dx%d Shards=%d: counters %+v before any Step, want zero", c.side, c.side, c.shards, cnt)
		}
		for r := 0; r <= 10; r++ {
			if got.Counters() != seq.Counters() {
				t.Fatalf("%dx%d Shards=%d after %d rounds: counters %+v, sequential twin %+v",
					c.side, c.side, c.shards, r, got.Counters(), seq.Counters())
			}
			seq.Step()
			got.Step()
		}
	}
}

// TestOneLaneHooksSeeLiveState pins the contract Config.Shards states by
// contrast with the sharded case: on a one-lane network hooks fire
// mid-phase, so a hook reading network state sees it live. A P=1 broadcast
// from a corner reaches its two neighbours in round 1; the OnEvent hook
// reads Aware and Counters at each delivery and must see the count rise
// between them (2 then 3 aware tiles, 1 then 2 deliveries), both for
// Shards 0 and for a request clamped to one lane.
func TestOneLaneHooksSeeLiveState(t *testing.T) {
	for _, shards := range []int{0, 4} {
		var n *Network
		var id packet.MsgID
		var aware, delivered []int
		n = mustNet(t, Config{
			Topo: topology.NewGrid(8, 8), P: 1, TTL: 4, MaxRounds: 10, Seed: 3, Shards: shards,
			OnEvent: func(ev Event) {
				if ev.Kind == EvDeliver && ev.Round == 1 {
					aware = append(aware, n.Aware(id))
					delivered = append(delivered, n.Counters().Deliveries)
				}
			},
		})
		if n.Shards() != 1 {
			t.Fatalf("Shards=%d on 8×8: runs %d lanes, want 1", shards, n.Shards())
		}
		id = mustInject(t, n, 0, packet.Broadcast, 0, nil)
		n.Step()
		if !reflect.DeepEqual(aware, []int{2, 3}) || !reflect.DeepEqual(delivered, []int{1, 2}) {
			t.Fatalf("Shards=%d: round-1 delivery hooks saw Aware %v and Deliveries %v, want live [2 3] and [1 2]",
				shards, aware, delivered)
		}
	}
}
