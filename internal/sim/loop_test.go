package sim

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/topology"
)

// loopFixture builds an instrumented 4x4 broadcast positioned at round 0.
func loopFixture(t *testing.T, seed uint64) (*core.Network, *metrics.Recorder, core.Config) {
	t.Helper()
	rec := metrics.NewRecorder(metrics.Config{Rounds: 64})
	base := core.Config{
		Topo: topology.NewGrid(4, 4), P: 0.6, TTL: 8, MaxRounds: 100, Seed: seed,
	}
	cfg := base
	rec.Install(&cfg)
	net, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := net.Inject(0, packet.Broadcast, 0, []byte("loop"))
	if err != nil {
		t.Fatal(err)
	}
	rec.Watch(id)
	return net, rec, base
}

func TestLoopRunsToQuiescence(t *testing.T) {
	net, _, _ := loopFixture(t, 11)
	rounds := 0
	l := Loop{
		Net: net, MaxRounds: 100,
		OnRound: func(n *core.Network) { rounds++ },
	}
	st := l.Run()
	if st != LoopQuiescent {
		t.Fatalf("status = %v, want quiescent", st)
	}
	if rounds != net.Round() {
		t.Fatalf("OnRound fired %d times over %d rounds", rounds, net.Round())
	}
}

func TestLoopDoneBeatsBarrier(t *testing.T) {
	// The Done predicate is checked before the Barrier: a run that
	// completed at round k must never also be yielded at round k, so a
	// checkpoint written on LoopYielded always holds an unfinished run.
	net, _, _ := loopFixture(t, 5)
	l := Loop{
		Net: net, MaxRounds: 100,
		Done:    func(n *core.Network) bool { return n.Round() >= 3 },
		Barrier: func(n *core.Network) BarrierOp { return OpYield },
	}
	// Barrier yields immediately at round 0: the run never advances.
	if st := l.Run(); st != LoopYielded || net.Round() != 0 {
		t.Fatalf("status=%v round=%d, want yielded at round 0", st, net.Round())
	}
	// With the barrier permissive until round 3, Done wins there.
	l.Barrier = func(n *core.Network) BarrierOp {
		if n.Round() >= 3 {
			return OpYield
		}
		return OpContinue
	}
	if st := l.Run(); st != LoopDone || net.Round() != 3 {
		t.Fatalf("status=%v round=%d, want done at round 3", st, net.Round())
	}
}

func TestLoopBudgetAndCancel(t *testing.T) {
	net, _, _ := loopFixture(t, 7)
	l := Loop{Net: net, MaxRounds: 2}
	if st := l.Run(); st != LoopBudget || net.Round() != 2 {
		t.Fatalf("status=%v round=%d, want budget at round 2", st, net.Round())
	}
	l.MaxRounds = 100
	l.Barrier = func(n *core.Network) BarrierOp { return OpCancel }
	if st := l.Run(); st != LoopCanceled {
		t.Fatalf("status=%v, want canceled", st)
	}
}

// TestLoopYieldResumeBitIdentical is the loop-level preemption
// guarantee: a run yielded at a barrier, checkpointed to a file, and
// resumed into a fresh engine finishes with byte-identical metric
// series (and equal counters) to the uninterrupted run.
func TestLoopYieldResumeBitIdentical(t *testing.T) {
	const seed = 42
	finish := func(net *core.Network, rec *metrics.Recorder) ([]byte, core.Counters) {
		l := Loop{Net: net, MaxRounds: 100}
		if st := l.Run(); st == LoopYielded || st == LoopCanceled {
			t.Fatalf("finish stopped with %v", st)
		}
		str := metrics.NewStreamer(rec)
		var buf bytes.Buffer
		for r := 0; r <= rec.Series().Rounds; r++ {
			buf.Write(str.RoundLine(r))
		}
		return buf.Bytes(), net.Counters()
	}

	// Uninterrupted reference.
	netU, recU, _ := loopFixture(t, seed)
	wantBytes, wantCnt := finish(netU, recU)

	// Preempted twin: yield at round 3, checkpoint, resume, finish.
	netP, recP, base := loopFixture(t, seed)
	l := Loop{
		Net: netP, MaxRounds: 100,
		Barrier: func(n *core.Network) BarrierOp {
			if n.Round() == 3 {
				return OpYield
			}
			return OpContinue
		},
	}
	if st := l.Run(); st != LoopYielded {
		t.Fatalf("status=%v, want yielded", st)
	}
	meta := CheckpointMeta{Replica: 0, Seed: seed}
	ck := Checkpointer{Dir: t.TempDir(), Every: 1}
	if err := ck.Save(meta, netP, recP); err != nil {
		t.Fatal(err)
	}
	rec2 := metrics.NewRecorder(metrics.Config{Rounds: 64})
	cfg2 := base
	rec2.Install(&cfg2)
	net2, ok, err := LoadReplica(ck.Dir, meta, cfg2, rec2)
	if err != nil || !ok {
		t.Fatalf("LoadReplica: ok=%v err=%v", ok, err)
	}
	gotBytes, gotCnt := finish(net2, rec2)

	if gotCnt != wantCnt {
		t.Fatalf("counters diverged:\nresumed %+v\nuninterrupted %+v", gotCnt, wantCnt)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("resumed run's streamed series is not byte-identical to the uninterrupted run")
	}
}
