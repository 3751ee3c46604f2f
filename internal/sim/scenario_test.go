package sim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/topology"
)

// unicastScenario is nocsim's default experiment on an 8x8 mesh: corner
// to corner, kind 1, stopping at delivery.
func unicastScenario(seed uint64) Scenario {
	return Scenario{
		Config: core.Config{
			Topo: topology.NewGrid(8, 8), P: 0.4, TTL: 64, MaxRounds: 200, Seed: seed,
			Fault: fault.Model{PUpset: 0.1, Protect: []packet.TileID{0, 63}},
		},
		Src: 0, Dst: 63, Kind: 1, Payload: 16, Rounds: 200,
		Tech: energy.NoCLink025, StopAtDelivery: true,
	}
}

func TestScenarioStopsAtDelivery(t *testing.T) {
	tr, err := unicastScenario(3).Run(Hooks{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Status != LoopDone || tr.Delivered != tr.Net.Round() || tr.Delivered < 14 {
		t.Fatalf("status %v, delivered %d at round %d; want done in the delivery round, >= 14 hops",
			tr.Status, tr.Delivered, tr.Net.Round())
	}
	if got := tr.Rec.Series().Rounds; tr.Msg != 1 || got != tr.Net.Round() {
		t.Fatalf("msg %d, recorded %d rounds of %d", tr.Msg, got, tr.Net.Round())
	}
}

// TestScenarioRunsPastDeliveryUnlessStopping pins the other half of
// StopAtDelivery: without it no delivery watch is installed (Delivered
// stays -1) and the run goes on to quiescence.
func TestScenarioRunsPastDeliveryUnlessStopping(t *testing.T) {
	sc := unicastScenario(3)
	sc.StopAtDelivery = false
	tr, err := sc.Run(Hooks{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Status != LoopQuiescent || tr.Delivered != -1 {
		t.Fatalf("status %v, delivered %d; want quiescent and -1", tr.Status, tr.Delivered)
	}
	if d := tr.Rec.Total(metrics.Deliveries); d != 1 {
		t.Fatalf("recorded %d deliveries, want 1", d)
	}
}

// TestScenarioDeadSourceQuiescentAtRoundZero: Loop checks quiescence
// only after a round, so Run stops a fresh network with nothing to run
// itself — no round executes.
func TestScenarioDeadSourceQuiescentAtRoundZero(t *testing.T) {
	sc := unicastScenario(1)
	sc.Config.Fault = fault.Model{PTileCrash: 1} // the source too: nothing protected
	rounds := 0
	tr, err := sc.Run(Hooks{Record: true, OnRound: func(*Trial) error { rounds++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Status != LoopQuiescent || tr.Net.Round() != 0 || rounds != 0 {
		t.Fatalf("status %v at round %d after %d hooks, want quiescent at round 0", tr.Status, tr.Net.Round(), rounds)
	}
}

// TestScenarioResumeByteIdentical yields a run at a barrier, continues
// the parked trial through Hooks.Parked and compares it with the
// straight run: same recorder state, same counters, same delivery round.
func TestScenarioResumeByteIdentical(t *testing.T) {
	sc := unicastScenario(5)
	straight, err := sc.Run(Hooks{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sc.Run(Hooks{Record: true, Barrier: yieldAt(6)})
	if err != nil || first.Status != LoopYielded {
		t.Fatalf("status %v (err %v), want yielded", first.Status, err)
	}
	var started int
	resumed, err := sc.Run(Hooks{Parked: first, Start: func(tr *Trial) { started = tr.Net.Round() }})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != first || started != 6 || resumed.Msg != 1 {
		t.Fatalf("continued %v at round %d, msg %d; want the parked trial at round 6 of message 1", resumed == first, started, resumed.Msg)
	}
	if resumed.Delivered != straight.Delivered || resumed.Net.Counters() != straight.Net.Counters() {
		t.Fatalf("resumed run delivered %d with %+v; straight %d with %+v",
			resumed.Delivered, resumed.Net.Counters(), straight.Delivered, straight.Net.Counters())
	}
	if !reflect.DeepEqual(resumed.Rec.Series(), straight.Rec.Series()) {
		t.Fatal("resumed series differs from the straight run's")
	}
}

// yieldAt is a Barrier hook that yields at round k.
func yieldAt(k int) func(*core.Network) BarrierOp {
	return func(n *core.Network) BarrierOp {
		if n.Round() == k {
			return OpYield
		}
		return OpContinue
	}
}

// TestParkedTrialSurvivesOtherRuns parks a recorded broadcast at three
// barriers, as a job preempted three times is, and runs other scenarios
// — fresh, and on a reused network — while it waits. Each continuation
// streams its rounds the way nocsimd does, and the parked run must end
// with the straight run's lines, counters, final engine state and
// series: a parked trial shares nothing with the runs around it.
func TestParkedTrialSurvivesOtherRuns(t *testing.T) {
	g := topology.NewGrid(12, 12)
	sc := Scenario{
		Config: core.Config{Topo: g, P: 0.5, TTL: 16, Seed: 2003,
			Fault: fault.Model{PUpset: 0.1, POverflow: 0.05}},
		Src: g.ID(6, 6), Dst: packet.Broadcast, Payload: 16, Rounds: 48,
		Tech: energy.NoCLink025,
	}
	run := func(h Hooks) (*Trial, []byte) {
		t.Helper()
		var lines bytes.Buffer
		var str *metrics.Streamer
		h.Start = func(tr *Trial) {
			str = metrics.NewStreamer(tr.Rec)
			if tr.Net.Round() == 0 {
				lines.Write(str.RoundLine(0))
			}
		}
		h.OnRound = func(tr *Trial) error {
			lines.Write(str.RoundLine(tr.Net.Round()))
			return nil
		}
		tr, err := sc.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return tr, lines.Bytes()
	}
	straight, want := run(Hooks{Record: true})

	// A taken-up trial starts at the barrier it yielded at: each round
	// yields once.
	parkAt := []int{3, 7, 11}
	barrier := func(n *core.Network) BarrierOp {
		if len(parkAt) > 0 && n.Round() == parkAt[0] {
			parkAt = parkAt[1:]
			return OpYield
		}
		return OpContinue
	}
	var got []byte
	var other *core.Network
	tr, lines := run(Hooks{Record: true, Barrier: barrier})
	for parks := 0; ; parks++ {
		got = append(got, lines...)
		if tr.Status != LoopYielded {
			if parks != 3 {
				t.Fatalf("run ended %v after %d parks, want 3", tr.Status, parks)
			}
			break
		}
		for _, o := range []Scenario{unicastScenario(uint64(parks)), sc} {
			o.Config.Seed++
			ot, err := o.Run(Hooks{Record: true, Net: other})
			if err != nil {
				t.Fatal(err)
			}
			other = ot.Net
		}
		tr, lines = run(Hooks{Parked: tr, Barrier: barrier})
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("parked run streamed\n%s\nstraight run streamed\n%s", got, want)
	}
	if tr.Net.Counters() != straight.Net.Counters() || !reflect.DeepEqual(tr.Rec.Series(), straight.Rec.Series()) {
		t.Fatal("parked run's counters or series differ from the straight run's")
	}
	var gotState, wantState bytes.Buffer
	if err := tr.Net.Snapshot(&gotState); err != nil {
		t.Fatal(err)
	}
	if err := straight.Net.Snapshot(&wantState); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState.Bytes(), wantState.Bytes()) {
		t.Fatal("parked run's final engine state differs from the straight run's")
	}
}

// TestScenarioNetReuseMatchesFresh pins Hooks.Net: run after run on one
// network — Reset to scenarios of other sizes, faults, stopping rules and
// seeds, with and without a recorder, after runs that stopped mid-spread —
// Run leaves the Trial, the final engine state and the recorded series a
// fresh network gives.
func TestScenarioNetReuseMatchesFresh(t *testing.T) {
	broadcast := func(side int, seed uint64) Scenario {
		g := topology.NewGrid(side, side)
		return Scenario{
			Config: core.Config{Topo: g, P: 0.5, TTL: 16, Seed: seed,
				Fault: fault.Model{POverflow: 0.05, SigmaSync: 0.4}},
			Src: g.ID(side/2, side/2), Dst: packet.Broadcast, Payload: 16, Rounds: 48,
			Tech: energy.NoCLink025,
		}
	}
	dead := unicastScenario(9)
	dead.Config.Fault = fault.Model{PTileCrash: 1}
	var net *core.Network
	for i, tc := range []struct {
		sc     Scenario
		record bool
	}{
		{unicastScenario(3), true},
		{broadcast(16, 2003), true},
		{broadcast(16, 2004), true},
		{unicastScenario(4), false},
		{dead, true},
		{broadcast(12, 7), true},
		{unicastScenario(5), true},
	} {
		want, err := tc.sc.Run(Hooks{Record: tc.record})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.sc.Run(Hooks{Record: tc.record, Net: net})
		if err != nil {
			t.Fatal(err)
		}
		if net != nil && got.Net != net {
			t.Fatalf("run %d: Trial.Net is not Hooks.Net", i)
		}
		net = got.Net
		if got.Msg != want.Msg || got.Delivered != want.Delivered || got.Status != want.Status {
			t.Fatalf("run %d: trial %+v, fresh %+v", i, *got, *want)
		}
		var gotState, wantState bytes.Buffer
		if err := got.Net.Snapshot(&gotState); err != nil {
			t.Fatal(err)
		}
		if err := want.Net.Snapshot(&wantState); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotState.Bytes(), wantState.Bytes()) {
			t.Fatalf("run %d: final engine state differs from a fresh network's", i)
		}
		if tc.record && !reflect.DeepEqual(got.Rec.Series(), want.Rec.Series()) {
			t.Fatalf("run %d: series differs from a fresh network's", i)
		}
	}
}

// TestScenarioResumeDeliveredBeforeCheckpoint: a trial parked by a run
// that did not watch for delivery, holding one already, ends at once when
// a watching run takes it up, reported at the round it was parked at —
// unless Dst is the source, which knows its own message without a
// delivery.
func TestScenarioResumeDeliveredBeforeCheckpoint(t *testing.T) {
	for _, self := range []bool{false, true} {
		sc := unicastScenario(5)
		if self {
			sc.Dst = sc.Src
			sc.Config.Fault.Protect = []packet.TileID{sc.Src}
		}
		straight, err := sc.Run(Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if self && straight.Delivered != -1 {
			t.Fatalf("self-addressed run delivered at round %d", straight.Delivered)
		}
		end := straight.Net.Round()
		unwatched := sc
		unwatched.StopAtDelivery, unwatched.Rounds = false, end
		parked, err := unwatched.Run(Hooks{})
		if err != nil || parked.Delivered != -1 || parked.Net.Round() != end {
			t.Fatalf("unwatched run: delivered %d at round %d (err %v); want -1 at round %d", parked.Delivered, parked.Net.Round(), err, end)
		}
		sc.Rounds = end + 10
		resumed, err := sc.Run(Hooks{Parked: parked})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !self && (resumed.Status != LoopDone || resumed.Delivered != end || resumed.Net.Round() != end):
			t.Fatalf("status %v, delivered %d at round %d; want done, delivered at the parked round %d",
				resumed.Status, resumed.Delivered, resumed.Net.Round(), end)
		case self && (resumed.Delivered != -1 || resumed.Status == LoopDone):
			t.Fatalf("self-addressed resume: status %v, delivered %d; want never delivered", resumed.Status, resumed.Delivered)
		}
	}
}

// TestScenarioOnRoundErrorStops: an OnRound error ends the run at that
// round's barrier and is returned.
func TestScenarioOnRoundErrorStops(t *testing.T) {
	boom := errors.New("boom")
	tr, err := unicastScenario(2).Run(Hooks{OnRound: func(tr *Trial) error {
		if tr.Net.Round() == 3 {
			return boom
		}
		return nil
	}})
	if !errors.Is(err, boom) || tr.Net.Round() != 3 {
		t.Fatalf("err %v at round %d; want boom at round 3", err, tr.Net.Round())
	}
}

// TestScenarioDeliveryWatchMatchesEvents pins the delivery watch, which
// reads Dst's awareness at every round barrier, against the engine's own
// delivery events. Over generated scenarios — StopSpreadOnDelivery,
// Recycle, literal upsets, overflow, skew, crashed tiles, a destination
// that is the source or the broadcast address — Trial.Delivered must be
// the round of the first EvDeliver at Dst a hooked twin sees, or -1 with
// none. Each case is also parked at a round barrier by a run that does
// not stop at delivery, and taken up with the watch on: it reports the
// same round, or the parked round for a delivery the trial already
// holds.
func TestScenarioDeliveryWatchMatchesEvents(t *testing.T) {
	cases := 80
	if testing.Short() {
		cases = 20
	}
	delivered, early := 0, 0
	for idx := 0; idx < cases; idx++ {
		g := rng.New(0xde11).Split(uint64(idx))
		side := 3 + g.Intn(8)
		tiles := side * side
		sc := Scenario{
			Config: core.Config{
				Topo: topology.NewGrid(side, side), P: 0.4 + 0.6*g.Float64(), TTL: uint8(4 + g.Intn(12)),
				MaxRounds: 120, StopSpreadOnDelivery: g.Bool(0.3), Recycle: g.Bool(0.3),
				Fault: fault.Model{POverflow: 0.2 * g.Float64(), SigmaSync: g.Float64()},
			},
			Src: packet.TileID(g.Intn(tiles)), Dst: packet.TileID(g.Intn(tiles)),
			Payload: 8, Rounds: 120, StopAtDelivery: true,
		}
		sc.Config.Seed = g.Uint64()
		f := &sc.Config.Fault
		if g.Bool(0.6) {
			f.PUpset, f.LiteralUpsets = 0.3*g.Float64(), g.Bool(0.4)
		}
		if g.Bool(0.3) {
			f.DeadTiles = g.Intn(tiles / 4)
		}
		switch g.Intn(8) {
		case 0:
			sc.Dst = sc.Src
		case 1:
			sc.Dst = packet.Broadcast
		}

		first := -1
		twin := sc
		twin.Config.OnEvent = func(ev core.Event) {
			if ev.Kind == core.EvDeliver && ev.Tile == sc.Dst && first < 0 {
				first = ev.Round
			}
		}
		if _, err := twin.Run(Hooks{}); err != nil {
			t.Fatal(err)
		}
		tr, err := sc.Run(Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Delivered != first {
			t.Fatalf("case %d: watch reported delivery at round %d, the hooked twin's first EvDeliver at Dst is %d", idx, tr.Delivered, first)
		}
		if first >= 0 {
			delivered++
		}

		k := 1 + g.Intn(12)
		through := sc
		through.StopAtDelivery = false
		ck, err := through.Run(Hooks{Barrier: yieldAt(k)})
		if err != nil {
			t.Fatal(err)
		}
		if ck.Status != LoopYielded {
			continue // drained before round k
		}
		resumed, err := sc.Run(Hooks{Parked: ck})
		if err != nil {
			t.Fatal(err)
		}
		want := first
		if first >= 0 && first < k {
			want, early = k, early+1
		}
		if resumed.Delivered != want {
			t.Fatalf("case %d resumed at round %d: watch reported %d, want %d (first EvDeliver at Dst: %d)", idx, k, resumed.Delivered, want, first)
		}
	}
	t.Logf("%d of %d cases delivered, %d before they were parked", delivered, cases, early)
	if delivered < cases/3 || early == 0 {
		t.Fatalf("degenerate population: %d of %d cases delivered, %d before they were parked", delivered, cases, early)
	}
}
