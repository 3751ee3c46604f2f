package fault

import (
	"math"
	"testing"

	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// newInjector samples a fresh injector, as core.New does.
func newInjector(topo topology.Topology, model Model, r *rng.Stream) (*Injector, error) {
	inj := new(Injector)
	return inj, inj.Reset(topo, model, r)
}

func TestZeroModelIsFaultFree(t *testing.T) {
	topo := topology.NewGrid(4, 4)
	inj, err := newInjector(topo, Model{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topo.Tiles(); i++ {
		if !inj.TileAlive(packet.TileID(i)) {
			t.Fatalf("tile %d dead under zero model", i)
		}
	}
	for _, l := range topo.Links() {
		if !inj.LinkAlive(l[0], l[1]) {
			t.Fatalf("link %v dead under zero model", l)
		}
	}
	r := rng.New(2)
	for i := 0; i < 100; i++ {
		if r.BoolT(inj.UpsetThreshold()) || r.BoolT(inj.OverflowThreshold()) || inj.SyncSlip(r) != 0 {
			t.Fatal("transient fault under zero model")
		}
	}
}

func TestExactDeadTiles(t *testing.T) {
	topo := topology.NewGrid(5, 5)
	for _, n := range []int{0, 1, 3, 6} {
		inj, err := newInjector(topo, Model{DeadTiles: n}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if got := inj.DeadTileCount(); got != n {
			t.Fatalf("DeadTiles=%d produced %d dead tiles", n, got)
		}
	}
}

func TestProtectedTilesSurvive(t *testing.T) {
	topo := topology.NewGrid(4, 4)
	protect := []packet.TileID{0, 5, 15}
	for seed := uint64(0); seed < 50; seed++ {
		inj, err := newInjector(topo, Model{DeadTiles: 10, Protect: protect}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range protect {
			if !inj.TileAlive(p) {
				t.Fatalf("protected tile %d killed (seed %d)", p, seed)
			}
		}
		if inj.DeadTileCount() != 10 {
			t.Fatalf("dead count = %d", inj.DeadTileCount())
		}
	}
}

func TestDeadTilesExceedCapacity(t *testing.T) {
	topo := topology.NewGrid(2, 2)
	if _, err := newInjector(topo, Model{DeadTiles: 3, Protect: []packet.TileID{0, 1}}, rng.New(1)); err == nil {
		t.Fatal("over-subscribed DeadTiles accepted")
	}
}

func TestDeadLinksExact(t *testing.T) {
	topo := topology.NewGrid(3, 3)
	inj, err := newInjector(topo, Model{DeadLinks: 4}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	dead := 0
	for _, l := range topo.Links() {
		if !inj.LinkAlive(l[0], l[1]) {
			dead++
		}
	}
	if dead != 4 {
		t.Fatalf("dead links = %d, want 4", dead)
	}
	if got := inj.DeadLinkCount(); got != 4 {
		t.Fatalf("DeadLinkCount = %d, want 4", got)
	}
	// A crashed tile kills its links through LinkAlive without adding to
	// the count of crashed links.
	tilesOnly, err := newInjector(topo, Model{DeadTiles: 2}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := tilesOnly.DeadLinkCount(); got != 0 {
		t.Fatalf("DeadLinkCount with tile crashes only = %d, want 0", got)
	}
}

// TestNoLinkListWithoutLinkFaults pins that an injector whose model has no
// link crashes never materialises the fabric's link list: the number of
// allocations is a small constant, the same on a mesh sixteen times the
// size (the list grows by append, so building it shows as a count that
// rises with the mesh).
func TestNoLinkListWithoutLinkFaults(t *testing.T) {
	small, large := topology.NewGrid(16, 16), topology.NewGrid(64, 64)
	for _, tc := range []struct {
		name  string
		model Model
	}{
		{"fault-free", Model{}},
		{"tile crash probability", Model{PTileCrash: 0.1, Protect: []packet.TileID{0}}},
		{"exact dead tiles", Model{DeadTiles: 3}},
	} {
		allocs := func(topo topology.Topology) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := newInjector(topo, tc.model, rng.New(7)); err != nil {
					t.Fatal(err)
				}
			})
		}
		s, l := allocs(small), allocs(large)
		if s != l || l > 8 {
			t.Errorf("%s: %v allocations at 16x16, %v at 64x64; want one small constant", tc.name, s, l)
		}
	}
}

func TestDeadLinksExceedCapacity(t *testing.T) {
	topo := topology.NewGrid(2, 1) // one link
	if _, err := newInjector(topo, Model{DeadLinks: 2}, rng.New(1)); err == nil {
		t.Fatal("over-subscribed DeadLinks accepted")
	}
}

func TestLinkWithDeadEndpointIsDead(t *testing.T) {
	topo := topology.NewGrid(2, 1)
	inj, err := newInjector(topo, Model{DeadTiles: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if inj.LinkAlive(0, 1) {
		t.Fatal("link with a dead endpoint reported alive")
	}
}

func TestProbabilisticCrashRate(t *testing.T) {
	topo := topology.NewGrid(10, 10)
	dead := 0
	const runs = 200
	for seed := uint64(0); seed < runs; seed++ {
		inj, err := newInjector(topo, Model{PTileCrash: 0.2}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		dead += inj.DeadTileCount()
	}
	rate := float64(dead) / float64(runs*100)
	if math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("empirical crash rate %v, want ~0.2", rate)
	}
}

func TestUpsetRate(t *testing.T) {
	topo := topology.NewGrid(2, 2)
	inj, err := newInjector(topo, Model{PUpset: 0.3, POverflow: 0.1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	upsets, overflows := 0, 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.BoolT(inj.UpsetThreshold()) {
			upsets++
		}
		if r.BoolT(inj.OverflowThreshold()) {
			overflows++
		}
	}
	if rate := float64(upsets) / n; math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("upset rate %v", rate)
	}
	if rate := float64(overflows) / n; math.Abs(rate-0.1) > 0.01 {
		t.Fatalf("overflow rate %v", rate)
	}
}

func TestSyncSlipDistribution(t *testing.T) {
	topo := topology.NewGrid(2, 2)
	inj, err := newInjector(topo, Model{SigmaSync: 1.0}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	var sum, zero int
	const n = 100000
	for i := 0; i < n; i++ {
		s := inj.SyncSlip(r)
		if s < 0 {
			t.Fatal("negative slip")
		}
		if s == 0 {
			zero++
		}
		sum += s
	}
	// With σ=1, P(slip=0) = P(|N(0,1)| < 1) ≈ 0.683.
	if zr := float64(zero) / n; math.Abs(zr-0.683) > 0.01 {
		t.Fatalf("P(slip=0) = %v, want ~0.683", zr)
	}
	if mean := float64(sum) / n; mean < 0.2 || mean > 0.6 {
		t.Fatalf("mean slip = %v, want ~0.36", mean)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	bad := []Model{
		{PUpset: -0.1},
		{PUpset: 1.1},
		{POverflow: 2},
		{PTileCrash: -1},
		{PLinkCrash: 7},
		{SigmaSync: -0.5},
		{DeadTiles: -1},
		{DeadLinks: -2},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted: %+v", i, m)
		}
	}
	if err := (&Model{PUpset: 0.5, SigmaSync: 2}).Validate(); err != nil {
		t.Errorf("good model rejected: %v", err)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	topo := topology.NewGrid(5, 5)
	m := Model{DeadTiles: 5, DeadLinks: 3}
	a, err := newInjector(topo, m, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInjector(topo, m, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topo.Tiles(); i++ {
		if a.TileAlive(packet.TileID(i)) != b.TileAlive(packet.TileID(i)) {
			t.Fatal("same seed produced different crash sets")
		}
	}
	for _, l := range topo.Links() {
		if a.LinkAlive(l[0], l[1]) != b.LinkAlive(l[0], l[1]) {
			t.Fatal("same seed produced different link sets")
		}
	}
}

func TestTileAliveOutOfRange(t *testing.T) {
	topo := topology.NewGrid(2, 2)
	inj, _ := newInjector(topo, Model{}, rng.New(1))
	if inj.TileAlive(100) {
		t.Fatal("out-of-range tile reported alive")
	}
}

func TestCorruptFrameChangesBytes(t *testing.T) {
	topo := topology.NewGrid(2, 2)
	inj, _ := newInjector(topo, Model{PUpset: 1, LiteralUpsets: true}, rng.New(1))
	frame := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]byte(nil), frame...)
	inj.CorruptFrame(frame, rng.New(2))
	same := true
	for i := range frame {
		if frame[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Fatal("CorruptFrame left frame unchanged")
	}
}

func TestAliveFuncsAdapter(t *testing.T) {
	topo := topology.NewGrid(3, 1)
	inj, _ := newInjector(topo, Model{DeadTiles: 1, Protect: []packet.TileID{0, 2}}, rng.New(1))
	alive, linkAlive := inj.AliveFuncs()
	if alive(1) {
		t.Fatal("tile 1 should be the dead one")
	}
	if linkAlive(0, 1) {
		t.Fatal("link to dead tile alive")
	}
	if !topology.Reachable(topo, 0, 0, alive, linkAlive) {
		t.Fatal("tile 0 unreachable from itself")
	}
}
