package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/topology"
)

// TestForOccupiedIteration pins the contract of the one sweep phases 2-4
// run (Network.sweep): ascending tile order, every occupied tile visited
// once and no other, and the summary exact through the drains. The sweep
// is observed through the aging phase: every occupied tile buffers one
// TTL-1 copy, so each visit drains the tile and is one EvExpire, in visit
// order. The 70×70 mesh spans two summary words (its tile word 64 opens
// the second) and ends in a partial word, so the two-level walk, the
// summary-word edge and the mesh end are all exercised.
func TestForOccupiedIteration(t *testing.T) {
	for _, set := range [][]int{
		{0, 1, 63, 64, 100, 127, 128, 199, 4095, 4096, 4100, 4899},
		{4095, 4096}, // adjacent words on either side of the summary-word edge
		{4899},       // only the partial last word
		{127, 4032},  // 59 idle words between occupied ones
		nil,          // an idle mesh visits nothing
	} {
		var got []int
		n := mustNet(t, Config{
			Topo: topology.NewGrid(70, 70), P: 0, TTL: 1, MaxRounds: 10, Seed: 1,
			OnEvent: func(ev Event) {
				if ev.Kind == EvExpire {
					got = append(got, int(ev.Tile))
				}
			},
		})
		for _, ti := range set {
			mustInject(t, n, packet.TileID(ti), packet.Broadcast, 0, nil)
		}
		n.sweep(sweepAge)
		if !reflect.DeepEqual(got, set) {
			t.Fatalf("sweep over %v visited %v", set, got)
		}
		// Every visited tile drained; the summary must have followed,
		// word by word.
		checkSummaryExact(t, "bufOcc", &n.bufOcc, 0)
		if !n.bufOcc.empty() {
			t.Fatalf("sweep over %v: bufOcc not empty after the drain", set)
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
			wantBuf := len(bufOf(tl)) > 0
			gotBuf := n.bufOcc.bits[i>>6]&(1<<(uint(i)&63)) != 0
			if wantBuf != gotBuf {
				t.Fatalf("round %d tile %d: bufOcc = %v, buffer len %d", round, i, gotBuf, len(bufOf(tl)))
			}
			wantRcv := inFlight(tl) > 0
			gotRcv := n.rcvOcc.bits[i>>6]&(1<<(uint(i)&63)) != 0
			if wantRcv != gotRcv {
				t.Fatalf("round %d tile %d: rcvOcc = %v, ring count %d", round, i, gotRcv, inFlight(tl))
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
		if tl.hot != nil {
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
