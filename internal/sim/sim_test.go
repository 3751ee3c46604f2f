package sim_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

var errFail = errors.New("replica failure")

func TestSeedsPrefixStable(t *testing.T) {
	long := sim.Seeds(7, 8)
	short := sim.Seeds(7, 5)
	if !reflect.DeepEqual(long[:5], short) {
		t.Fatalf("growing a study changed earlier seeds:\n %v\n %v", long[:5], short)
	}
	seen := map[uint64]bool{}
	for _, s := range long {
		if seen[s] {
			t.Fatalf("duplicate replica seed %#x", s)
		}
		seen[s] = true
	}
}

// coreReplica is one full round-engine run — broadcast over a faulty
// 4x4 grid with no hook attached — returning the standard metrics
// record. This is the body shape every figure runner uses.
func coreReplica(_ int, seed uint64) (sim.Metrics, error) {
	cfg := core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 10, MaxRounds: 60,
		Seed:  seed,
		Fault: fault.Model{PUpset: 0.2, POverflow: 0.1},
	}
	net, err := core.New(cfg)
	if err != nil {
		return sim.Metrics{}, err
	}
	net.Inject(0, packet.Broadcast, 0, make([]byte, 16))
	for r := 0; r < 40 && !net.Quiescent(); r++ {
		net.Step()
	}
	res := core.Result{Completed: true, Rounds: net.Round()}
	return sim.Measure(net, res, energy.NoCLink025), nil
}

// TestRunDeterministicAcrossWorkers is the regression gate for the
// runner's core guarantee: workers=1, workers=4 and the GOMAXPROCS
// default produce byte-identical results, because the replica index —
// not scheduling — picks each replica's seed and result slot.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	const replicas, seed = 12, 42
	run := func(workers int) sim.Aggregate {
		agg, err := sim.RunMetrics(
			sim.Config{Replicas: replicas, Workers: workers, Seed: seed}, coreReplica)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	sequential := run(1)
	for _, w := range []int{4, 0} { // 0 = GOMAXPROCS default
		if got := run(w); !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d diverged from sequential:\n%+v\nvs\n%+v", w, got, sequential)
		}
	}
	if sequential.Transmissions.Mean == 0 {
		t.Fatal("replicas did not actually run (no transmissions)")
	}
	if sequential.CRCRejects.Mean == 0 {
		t.Fatal("fault model inactive (no CRC rejects at PUpset=0.2)")
	}
}

// TestRunDeterministicAcrossWorkersWithSlip repeats the worker-count
// invariance with synchronization skew active (σ_synchr > 0), so copies
// cross round boundaries through the engine's per-tile arrival rings:
// multi-round in-flight state must not perturb seeding or determinism.
func TestRunDeterministicAcrossWorkersWithSlip(t *testing.T) {
	const replicas, seed = 12, 42
	var slipped atomic.Int64 // summed across replicas: order-independent
	slipReplica := func(_ int, s uint64) (sim.Metrics, error) {
		cfg := core.Config{
			Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 10, MaxRounds: 80,
			Seed:  s,
			Fault: fault.Model{SigmaSync: 1.5, PUpset: 0.1},
		}
		net, err := core.New(cfg)
		if err != nil {
			return sim.Metrics{}, err
		}
		net.Inject(0, packet.Broadcast, 0, make([]byte, 16))
		for r := 0; r < 60 && !net.Quiescent(); r++ {
			net.Step()
		}
		slipped.Add(int64(net.Counters().SlippedDeliveries))
		res := core.Result{Completed: true, Rounds: net.Round()}
		return sim.Measure(net, res, energy.NoCLink025), nil
	}
	run := func(workers int) sim.Aggregate {
		agg, err := sim.RunMetrics(
			sim.Config{Replicas: replicas, Workers: workers, Seed: seed}, slipReplica)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	sequential := run(1)
	for _, w := range []int{4, 0} {
		if got := run(w); !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d diverged from sequential:\n%+v\nvs\n%+v", w, got, sequential)
		}
	}
	if slipped.Load() == 0 {
		t.Fatal("fault model inactive (no slipped receptions at σ=1.5)")
	}
}

// TestRunDeterministicDiversity repeats the worker-count invariance on a
// second, structurally different workload: the Chapter 5 beamforming
// comparison from internal/diversity.
func TestRunDeterministicDiversity(t *testing.T) {
	const replicas, seed = 4, 7
	run := func(workers int) []*diversity.Result {
		out, err := sim.Run(sim.Config{Replicas: replicas, Workers: workers, Seed: seed},
			func(_ int, seed uint64) (*diversity.Result, error) {
				return diversity.RunBeamforming(diversity.Build(diversity.FlatNoC),
					diversity.CompareConfig{Seed: seed, Blocks: 1})
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sequential := run(1)
	for _, w := range []int{4, 0} {
		if got := run(w); !reflect.DeepEqual(got, sequential) {
			t.Fatalf("workers=%d diverged from sequential", w)
		}
	}
	for r, res := range sequential {
		if res.Transmissions == 0 {
			t.Fatalf("replica %d ran no traffic", r)
		}
	}
}

// TestRunErrorDeterministic: with several failing replicas, the reported
// error is the lowest-indexed one no matter how replicas were scheduled.
func TestRunErrorDeterministic(t *testing.T) {
	for _, w := range []int{1, 4} {
		_, err := sim.Run(sim.Config{Replicas: 8, Workers: w, Seed: 1},
			func(r int, _ uint64) (int, error) {
				if r == 2 || r == 6 {
					return 0, errFail
				}
				return r, nil
			})
		if err == nil {
			t.Fatalf("workers=%d: failing replicas not reported", w)
		}
		if !strings.Contains(err.Error(), "replica 2") {
			t.Fatalf("workers=%d: got %q, want lowest failing replica 2", w, err)
		}
	}
}

func TestRunRejectsNonPositiveReplicas(t *testing.T) {
	if _, err := sim.Run(sim.Config{}, func(int, uint64) (int, error) { return 0, nil }); err == nil {
		t.Fatal("Replicas=0 accepted")
	}
}

// measureCase is one engine configuration of TestMeasureMatchesRecorder
// and TestRecorderMatchesEventsPerRound: a fault mix, a mesh size,
// broadcasts and unicasts injected before given rounds, and optionally
// processes that create messages mid-run (Ctx.Send, the other creation
// site), in phase 1 or at delivery.
type measureCase struct {
	cfg    core.Config
	inject []measureInjection
	sender bool // attach broadcastAt to tile 1
	echo   bool // attach an echoReceiver to tile 2
	rounds int
}

type measureInjection struct {
	before   int
	src, dst packet.TileID
}

// broadcastAt broadcasts one message from its tile in round 3.
type broadcastAt struct{}

func (broadcastAt) Init(*core.Ctx) {}

func (broadcastAt) Round(ctx *core.Ctx) {
	if ctx.Round() == 3 {
		ctx.Send(packet.Broadcast, 0, []byte("mid-run"))
	}
}

// echoReceiver answers the first packet delivered to its tile with a
// unicast back to the packet's source, sent from Receive.
type echoReceiver struct{ done bool }

func (*echoReceiver) Init(*core.Ctx)  {}
func (*echoReceiver) Round(*core.Ctx) {}

func (e *echoReceiver) Receive(ctx *core.Ctx, p *packet.Packet) {
	if !e.done {
		e.done = true
		ctx.Send(p.Src, 1, []byte("echo"))
	}
}

// genMeasureCase draws case idx: every fault of the analytic and literal
// paths, StopSpreadOnDelivery, Recycle, on a small mesh or, in about
// half the cases, one of at least two 64-tile occupancy words.
func genMeasureCase(idx int) measureCase {
	g := rng.New(0x3ea5).Split(uint64(idx))
	wide := g.Intn(2) == 1
	side := 4 + g.Intn(6)
	if wide {
		side = 12 + g.Intn(5)
	}
	tiles := side * side
	c := measureCase{
		cfg: core.Config{
			Topo: topology.NewGrid(side, side), P: 0.3 + 0.6*g.Float64(),
			TTL: uint8(3 + g.Intn(10)), MaxRounds: 1000, Seed: g.Uint64(),
			StopSpreadOnDelivery: g.Bool(0.2),
		},
		sender: g.Bool(0.3),
		rounds: 10 + g.Intn(30),
	}
	f := &c.cfg.Fault
	if g.Bool(0.7) {
		f.PUpset = 0.3 * g.Float64()
		f.LiteralUpsets = g.Bool(0.25)
	}
	if g.Bool(0.4) {
		f.POverflow = 0.2 * g.Float64()
	}
	if g.Bool(0.4) {
		f.SigmaSync = 1.5 * g.Float64()
	}
	for i, k := 0, 1+g.Intn(3); i < k; i++ {
		in := measureInjection{
			before: g.Intn(c.rounds / 2), src: packet.TileID(g.Intn(tiles)), dst: packet.Broadcast,
		}
		if g.Bool(0.4) {
			in.dst = packet.TileID(g.Intn(tiles))
		}
		c.inject = append(c.inject, in)
	}
	c.cfg.Recycle = g.Bool(0.25)
	c.echo = g.Bool(0.3)
	return c
}

// build returns the case's network under cfg, the case's config with
// any hooks attached.
func (c measureCase) build(tb testing.TB, cfg core.Config) *core.Network {
	tb.Helper()
	net, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c.attach(net)
	return net
}

// attach maps the case's processes onto net.
func (c measureCase) attach(net *core.Network) {
	if c.sender {
		net.Attach(1, broadcastAt{})
	}
	if c.echo {
		net.Attach(2, &echoReceiver{})
	}
}

// stepTo steps net from its current round to round until, injecting on
// schedule.
func (c measureCase) stepTo(tb testing.TB, net *core.Network, until int) {
	tb.Helper()
	for r := net.Round(); r < until; r++ {
		for _, in := range c.inject {
			if in.before == r {
				if _, err := net.Inject(in.src, in.dst, 0, []byte("m")); err != nil {
					tb.Fatal(err)
				}
			}
		}
		net.Step()
	}
}

// run finishes the case on net: the remaining rounds, then a drain.
func (c measureCase) run(tb testing.TB, net *core.Network) {
	tb.Helper()
	c.stepTo(tb, net, c.rounds)
	net.Drain(4 * int(c.cfg.TTL))
}

// countEvents returns an OnEvent hook that tallies every event into c,
// one field per kind.
func countEvents(c *sim.Counts) func(core.Event) {
	return func(e core.Event) {
		switch e.Kind {
		case core.EvCreated:
			c.Created++
		case core.EvTransmit:
			c.Transmissions++
		case core.EvUpset:
			c.CRCRejects++
		case core.EvOverflow:
			c.OverflowDrops++
		case core.EvDeliver:
			c.Deliveries++
		case core.EvExpire:
			c.TTLExpiries++
		}
	}
}

// recorderCounts reads rec's run totals in Counts' field order.
func recorderCounts(rec *metrics.Recorder) sim.Counts {
	return sim.Counts{
		Created:       int(rec.Total(metrics.Created)),
		Transmissions: int(rec.Total(metrics.Transmissions)),
		CRCRejects:    int(rec.Total(metrics.CRCRejects)),
		OverflowDrops: int(rec.Total(metrics.OverflowDrops)),
		Deliveries:    int(rec.Total(metrics.Deliveries)),
		TTLExpiries:   int(rec.Total(metrics.TTLExpiries)),
	}
}

// TestMeasureMatchesRecorder pins Measure's engine-side counts against
// the recorder's totals and the events behind them. Each generated case
// runs twice from one seed: with no hook, so the engine settles upsets at
// the sender and Measure reads only Counters and Tally, and with a
// metrics.Recorder installed next to an independently chained OnEvent
// hook, which keeps every upset on the ring path. The counts must be
// equal field for field. The resumed case checks that Tally, like a
// hook, restarts at Restore while Counters carry the snapshot's totals.
func TestMeasureMatchesRecorder(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 20
	}
	var total sim.Counts
	for idx := 0; idx < cases; idx++ {
		c := genMeasureCase(idx)
		net := c.build(t, c.cfg)
		c.run(t, net)
		got := sim.Measure(net, core.Result{}, energy.NoCLink025).Counts
		rec := metrics.NewRecorder(metrics.Config{Rounds: 60})
		var events sim.Counts
		cfg := c.cfg
		cfg.OnEvent = countEvents(&events)
		rec.Install(&cfg)
		c.run(t, c.build(t, cfg))
		if want := recorderCounts(rec); got != want {
			t.Fatalf("case %d (%+v): Measure counts %+v, recorder totals %+v", idx, c.cfg, got, want)
		}
		if got != events {
			t.Fatalf("case %d (%+v): Measure counts %+v, event hook %+v", idx, c.cfg, got, events)
		}
		total.Created += got.Created
		total.CRCRejects += got.CRCRejects
		total.OverflowDrops += got.OverflowDrops
		total.TTLExpiries += got.TTLExpiries
	}
	if total.Created == 0 || total.CRCRejects == 0 || total.OverflowDrops == 0 || total.TTLExpiries == 0 {
		t.Fatalf("degenerate population: totals %+v", total)
	}

	t.Run("resumed", func(t *testing.T) {
		// A hook-free run is checkpointed mid-run and restored twice, with
		// no hook and with an event hook. The resumed Measure counts must
		// be the hook's post-restore tallies plus, for the fields Counters
		// backs, the counts at the checkpoint.
		c := measureCase{
			cfg: core.Config{
				Topo: topology.NewGrid(6, 6), P: 0.6, TTL: 8, MaxRounds: 1000, Seed: 9,
				Fault: fault.Model{PUpset: 0.2, POverflow: 0.1, SigmaSync: 0.7},
			},
			inject: []measureInjection{{0, 0, packet.Broadcast}, {6, 35, 7}},
			sender: true,
			rounds: 20,
		}
		const k = 8
		net := c.build(t, c.cfg)
		c.stepTo(t, net, k)
		var buf bytes.Buffer
		if err := net.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		at := sim.Measure(net, core.Result{}, energy.NoCLink025).Counts
		if at.Created == 0 || at.TTLExpiries == 0 {
			t.Fatalf("checkpoint round %d precedes the events it should split: %+v", k, at)
		}
		restore := func(hook func(core.Event)) *core.Network {
			cfg := c.cfg
			cfg.OnEvent = hook
			n, err := core.Restore(bytes.NewReader(buf.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.attach(n)
			return n
		}
		resumed := restore(nil)
		if created, expired, _ := resumed.Tally(); created != 0 || expired != 0 {
			t.Fatalf("restored tally = (%d, %d), want (0, 0)", created, expired)
		}
		c.run(t, resumed)
		got := sim.Measure(resumed, core.Result{}, energy.NoCLink025).Counts
		var want sim.Counts
		c.run(t, restore(countEvents(&want)))
		want.Transmissions += at.Transmissions
		want.CRCRejects += at.CRCRejects
		want.OverflowDrops += at.OverflowDrops
		want.Deliveries += at.Deliveries
		if got != want {
			t.Fatalf("resumed Measure counts %+v, want %+v", got, want)
		}
	})
}

// eventRounds is the referee of a recorder's event series: an
// independently chained OnEvent hook that buckets every event by the
// round it carries and by its series.
type eventRounds [][metrics.AwareTiles]int64

// kindSeries maps each event kind onto the series that counts it.
var kindSeries = [...]metrics.IntID{
	core.EvCreated: metrics.Created, core.EvTransmit: metrics.Transmissions,
	core.EvUpset: metrics.CRCRejects, core.EvOverflow: metrics.OverflowDrops,
	core.EvDeliver: metrics.Deliveries, core.EvExpire: metrics.TTLExpiries,
}

func (er *eventRounds) hook(e core.Event) {
	for len(*er) <= e.Round {
		*er = append(*er, [metrics.AwareTiles]int64{})
	}
	(*er)[e.Round][kindSeries[e.Kind]]++
}

// compare fails tb at the first round and series where ts differs from
// the events.
func (er eventRounds) compare(tb testing.TB, label string, ts *metrics.TimeSeries) {
	tb.Helper()
	for r := 0; r < len(er) || r <= ts.Rounds; r++ {
		for id := metrics.Created; id < metrics.AwareTiles; id++ {
			var got, want int64
			if r <= ts.Rounds {
				got = ts.Int(id)[r]
			}
			if r < len(er) {
				want = er[r][id]
			}
			if got != want {
				tb.Fatalf("%s: round %d, series %d: recorder %d, events %d", label, r, id, got, want)
			}
		}
	}
}

// refereeConfig is the case's config with ev's hook and rec installed,
// and an OnRoundEnd hook that injects a broadcast from tile 0 at the end
// of round at, chained before the recorder's flush or, with after, behind
// it.
func (c measureCase) refereeConfig(tb testing.TB, rec *metrics.Recorder, ev *eventRounds, at int, after bool) core.Config {
	cfg := c.cfg
	cfg.OnEvent = ev.hook
	inject := func(round int, n *core.Network) {
		if round != at {
			return
		}
		if _, err := n.Inject(0, packet.Broadcast, 0, []byte("hook")); err != nil {
			tb.Fatal(err)
		}
	}
	if after {
		rec.Install(&cfg)
		flush := cfg.OnRoundEnd
		cfg.OnRoundEnd = func(round int, n *core.Network) { flush(round, n); inject(round, n) }
	} else {
		cfg.OnRoundEnd = inject
		rec.Install(&cfg)
	}
	return cfg
}

// TestRecorderMatchesEventsPerRound is the recorder's referee: the event
// series it fills from per-round deltas of Counters and Tally must equal,
// round for round, an independently chained OnEvent hook that buckets
// the events by the round they carry. The population is Measure's
// (upsets, literal frames, overflow, skew, StopSpreadOnDelivery, Recycle,
// Ctx.Send from a Round and from a Receiver), whose injections include
// some between rounds; every case also injects from a chained OnRoundEnd
// (before the recorder's flush in even cases, behind it in odd ones),
// and runs once straight and once checkpointed mid-run and resumed with
// its recorder; every fourth checkpoint follows the hook's Inject.
func TestRecorderMatchesEventsPerRound(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 20
	}
	between := 0
	for idx := 0; idx < cases; idx++ {
		c := genMeasureCase(idx)
		at, after := 1+(7*idx)%c.rounds, idx%2 == 1
		rcfg := metrics.Config{Rounds: 60, Tech: energy.NoCLink025}
		label := func(s string) string { return fmt.Sprintf("case %d, %s", idx, s) }

		var ev eventRounds
		rec := metrics.NewRecorder(rcfg)
		net := c.build(t, c.refereeConfig(t, rec, &ev, at, after))
		c.run(t, net)
		rec.Sync(net)
		ev.compare(t, label("straight"), rec.Series())
		for _, in := range c.inject {
			if in.before > 0 {
				between++
			}
		}

		// Every fourth case checkpoints right after its hook's Inject.
		k := 1 + idx%(c.rounds-1)
		if idx%4 == 3 {
			k = min(at, c.rounds-1)
		}
		ev = nil
		rec = metrics.NewRecorder(rcfg)
		net = c.build(t, c.refereeConfig(t, rec, &ev, at, after))
		c.stepTo(t, net, k)
		var buf bytes.Buffer
		if err := sim.WriteCheckpoint(&buf, sim.CheckpointMeta{}, net, rec); err != nil {
			t.Fatal(err)
		}
		rec = metrics.NewRecorder(rcfg)
		resumed, _, err := sim.ReadCheckpoint(&buf, c.refereeConfig(t, rec, &ev, at, after), rec)
		if err != nil {
			t.Fatal(err)
		}
		c.attach(resumed)
		c.run(t, resumed)
		rec.Sync(resumed)
		ev.compare(t, label(fmt.Sprintf("resumed at round %d", k)), rec.Series())
	}
	if between == 0 {
		t.Fatal("no case injected between rounds")
	}
}

func TestSummarizeSplitsCompletedFromEventStats(t *testing.T) {
	agg := sim.Summarize([]sim.Metrics{
		{Completed: true, Rounds: 10, Counts: sim.Counts{Transmissions: 100}},
		{Completed: true, Rounds: 20, Counts: sim.Counts{Transmissions: 200}},
		{Completed: false, Rounds: 60, Counts: sim.Counts{Transmissions: 300}},
	})
	if agg.Replicas != 3 || agg.Completed != 2 {
		t.Fatalf("replicas/completed = %d/%d", agg.Replicas, agg.Completed)
	}
	// Rounds averages completed replicas only; the DNF's MaxRounds value
	// must not leak in.
	if agg.Rounds.Mean != 15 {
		t.Fatalf("rounds mean %v, want 15 (completed only)", agg.Rounds.Mean)
	}
	// Event counters cover every replica.
	if agg.Transmissions.Mean != 200 {
		t.Fatalf("tx mean %v, want 200 (all replicas)", agg.Transmissions.Mean)
	}
	if agg.CompletionRate != 2.0/3.0 {
		t.Fatalf("completion rate %v", agg.CompletionRate)
	}
}

// RunOffset's contract: the seed a replica sees depends only on its
// absolute index, never on how the sequence is sliced into windows.
func TestRunOffsetSeedsArePrefixStable(t *testing.T) {
	const master, total = 0xfeed, 24
	want := sim.Seeds(master, total)

	collect := func(windows [][2]int, workers int) []uint64 {
		got := make([]uint64, total)
		for _, w := range windows {
			cfg := sim.Config{Replicas: w[1], Workers: workers, Seed: master}
			_, err := sim.RunOffset(cfg, w[0], func(replica int, seed uint64) (struct{}, error) {
				got[replica] = seed
				return struct{}{}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return got
	}

	for _, tc := range []struct {
		name    string
		windows [][2]int
		workers int
	}{
		{"oneWindow", [][2]int{{0, 24}}, 1},
		{"threeWindows", [][2]int{{0, 8}, {8, 8}, {16, 8}}, 4},
		{"unevenWindows", [][2]int{{0, 5}, {5, 13}, {18, 6}}, 3},
	} {
		got := collect(tc.windows, tc.workers)
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%s: replica %d saw seed %#x, Seeds gives %#x", tc.name, r, got[r], want[r])
			}
		}
	}
}

func TestRunOffsetRejectsNegativeOffset(t *testing.T) {
	_, err := sim.RunOffset(sim.Config{Replicas: 1}, -1, func(int, uint64) (int, error) { return 0, nil })
	if err == nil {
		t.Fatal("negative offset accepted")
	}
}
