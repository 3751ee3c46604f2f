package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// TestForOccupiedIteration pins the contract of the one sweep phases 2-4
// run (Network.sweep) over the ranges lanes actually have — whole 64-tile
// words, the last one possibly cut short by the mesh end: ascending tile
// order, words outside [lo, hi) never visited even when they share a
// summary word with the range, empty ranges visit nothing, and the summary
// stays exact through the drains. The sweep runs through a real lane, its
// range set to the case's: the lane of a one-lane network and a lane of a
// four-lane network, each direct (the phase-4 fallback) and in parallel
// mode (n.par: the summary CAS path). The sweep is observed through the
// aging phase: every occupied tile buffers one TTL-1 copy, so each visit
// drains the tile and, on the one-lane network (the only kind an OnEvent
// listener runs on), is one EvExpire, in visit order. The 70×70 mesh
// spans two summary words (its tile word 64 opens the second), so the
// two-level walk and the summary-level range masks are exercised.
func TestForOccupiedIteration(t *testing.T) {
	set := []int{0, 1, 63, 64, 100, 127, 128, 199, 4095, 4096, 4100, 4899}
	cases := []struct {
		lo, hi int
		want   []int
	}{
		{0, 4900, set},
		{0, 64, []int{0, 1, 63}},                       // one word
		{64, 128, []int{64, 100, 127}},                 // one word, neighbours occupied on both sides
		{128, 4096, []int{128, 199, 4095}},             // hi on the summary-word edge
		{128, 4160, []int{128, 199, 4095, 4096, 4100}}, // range crosses the summary-word edge
		{4096, 4900, []int{4096, 4100, 4899}},          // lo on the summary-word edge, hi the mesh end
		{4160, 4900, []int{4899}},                      // lo inside the second summary word, partial last word
		{192, 192, nil},                                // empty range
		{256, 4032, nil},                               // 59 idle words between occupied ones
	}
	modes := []struct {
		shards int
		par    bool
	}{{0, false}, {0, true}, {4, false}, {4, true}}
	for _, c := range cases {
		for _, m := range modes {
			var got []int
			cfg := Config{Topo: topology.NewGrid(70, 70), P: 0, TTL: 1, MaxRounds: 10, Seed: 1, Shards: m.shards}
			if m.shards == 0 {
				cfg.OnEvent = func(ev Event) {
					if ev.Kind == EvExpire {
						got = append(got, int(ev.Tile))
					}
				}
			}
			n := mustNet(t, cfg)
			if want := max(1, m.shards); n.Shards() != want {
				t.Fatalf("Shards: 70×70 runs %d lanes, want %d", n.Shards(), want)
			}
			for _, ti := range set {
				mustInject(t, n, packet.TileID(ti), packet.Broadcast, 0, nil)
			}
			ln := n.laneOf(packet.TileID(c.lo))
			ln.lo, ln.hi = c.lo, c.hi
			n.par = m.par
			n.sweep(ln, sweepAge)
			n.par = false
			if m.shards != 0 {
				// No listener: the visits are the drained buffers.
				for _, ti := range set {
					if len(n.tiles[ti].sendBuf) == 0 {
						got = append(got, ti)
					}
				}
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("sweep[%d,%d) shards=%d par=%v visited %v, want %v", c.lo, c.hi, m.shards, m.par, got, c.want)
			}
			// Every visited tile drained; the summary must have followed,
			// word by word, and nothing outside the range may have moved.
			checkSummaryExact(t, "bufOcc", &n.bufOcc, 0)
			for _, ti := range set {
				inRange := c.lo <= ti && ti < c.hi
				if occupied := n.bufOcc.bits[ti>>6]&(1<<(uint(ti)&63)) != 0; occupied == inRange {
					t.Fatalf("sweep[%d,%d) shards=%d par=%v: tile %d occupied=%v after the sweep", c.lo, c.hi, m.shards, m.par, ti, occupied)
				}
			}
			if whole := c.lo == 0 && c.hi == 4900; n.bufOcc.empty() != whole {
				t.Fatalf("sweep[%d,%d) shards=%d par=%v: empty() = %v", c.lo, c.hi, m.shards, m.par, !whole)
			}
		}
	}
}

// checkSummaryExact checks that the summary level mirrors the word level
// exactly, as it must at every round barrier: a summary bit is set iff its
// 64-tile word is non-zero.
func checkSummaryExact(t *testing.T, name string, m *occMap, round int) {
	t.Helper()
	for wi, w := range m.bits {
		got := m.sum[wi>>6]&(1<<(uint(wi)&63)) != 0
		if got != (w != 0) {
			t.Fatalf("round %d %s word %d = %#x but summary bit = %v", round, name, wi, w, got)
		}
	}
}

// TestOccupancyTracksTileState steps a small network and checks, at every
// round barrier, that the occupancy bitmaps exactly mirror the tiles'
// buffer and ring state — the invariant Quiescent and the phase sweeps
// rely on — and that the summary level mirrors the words.
func TestOccupancyTracksTileState(t *testing.T) {
	cfg := Config{
		Topo: topology.NewGrid(5, 5), P: 0.5, TTL: 6, MaxRounds: 100, Seed: 9,
		// Skewed arrivals keep rings non-empty across round boundaries.
		Fault: fault.Model{SigmaSync: 1.0},
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Quiescent() {
		t.Fatal("fresh network not quiescent")
	}
	mustInject(t, n, 12, packet.Broadcast, 0, []byte("occ"))
	checkExact := func(round int) {
		for i := range n.tiles {
			tl := &n.tiles[i]
			wantBuf := len(tl.sendBuf) > 0
			gotBuf := n.bufOcc.bits[i>>6]&(1<<(uint(i)&63)) != 0
			if wantBuf != gotBuf {
				t.Fatalf("round %d tile %d: bufOcc = %v, buffer len %d", round, i, gotBuf, len(tl.sendBuf))
			}
			wantRcv := tl.ring.count > 0
			gotRcv := n.rcvOcc.bits[i>>6]&(1<<(uint(i)&63)) != 0
			if wantRcv != gotRcv {
				t.Fatalf("round %d tile %d: rcvOcc = %v, ring count %d", round, i, gotRcv, tl.ring.count)
			}
		}
		checkSummaryExact(t, "bufOcc", &n.bufOcc, round)
		checkSummaryExact(t, "rcvOcc", &n.rcvOcc, round)
	}
	quiet := false
	for r := 0; r < 40; r++ {
		n.Step()
		checkExact(r + 1)
		if n.Quiescent() {
			quiet = true
			break
		}
	}
	if !quiet {
		t.Fatal("TTL-6 broadcast never drained in 40 rounds")
	}
	// Quiescence via bitmaps must agree with the ground truth.
	for i := range n.tiles {
		tl := &n.tiles[i]
		if len(tl.sendBuf) > 0 || tl.ring.count > 0 {
			t.Fatalf("Quiescent() true but tile %d holds state", tl.id)
		}
	}
	// rebuildOccupancy (the restore path) must reproduce the live bitmaps.
	bufBefore := append([]uint64(nil), n.bufOcc.bits...)
	rcvBefore := append([]uint64(nil), n.rcvOcc.bits...)
	n.rebuildOccupancy()
	for i := range bufBefore {
		if n.bufOcc.bits[i] != bufBefore[i] || n.rcvOcc.bits[i] != rcvBefore[i] {
			t.Fatalf("rebuildOccupancy diverged from incrementally-maintained bitmaps at word %d", i)
		}
	}
	checkSummaryExact(t, "bufOcc", &n.bufOcc, -1)
	checkSummaryExact(t, "rcvOcc", &n.rcvOcc, -1)
}

// TestOccupancySummaryLargeMesh runs a sub-TTL broadcast on a mesh large
// enough for multi-word summaries (128×128 = 256 tile words = 4 summary
// words) and checks barrier exactness of both levels every round — the
// regime the frontier sweep exists for.
func TestOccupancySummaryLargeMesh(t *testing.T) {
	cfg := Config{
		Topo: topology.NewGrid(128, 128), P: 1, TTL: 9, MaxRounds: 100, Seed: 77,
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustInject(t, n, 128*64+64, packet.Broadcast, 0, []byte("f"))
	for r := 0; r < 16; r++ {
		n.Step()
		checkSummaryExact(t, "bufOcc", &n.bufOcc, r+1)
		checkSummaryExact(t, "rcvOcc", &n.rcvOcc, r+1)
	}
	if !n.Quiescent() {
		t.Fatal("TTL-9 flood not drained after 16 rounds")
	}
}
