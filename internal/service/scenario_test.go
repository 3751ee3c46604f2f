package service

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// selfJob addresses the source itself: the originator knows its own
// rumor, so the message is never delivered and the run drains to
// quiescence when the last copy's TTL runs out.
func selfJob(seed uint64) JobRequest {
	return JobRequest{
		Width: 6, Height: 6, Src: 14, Dst: 14,
		P: 0.6, TTL: 24, Seed: seed, MaxRounds: 80,
	}
}

// TestSrcEqualsDstNeverDelivered pins a request whose destination is
// its source: done with delivered_round -1 after running to quiescence,
// well inside its round budget.
func TestSrcEqualsDstNeverDelivered(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	sub := submit(t, c, selfJob(5))
	st, res := waitState(t, c, sub.ID, StateDone)
	if st.DeliveredRound != -1 {
		t.Fatalf("delivered_round = %d, want -1", st.DeliveredRound)
	}
	if st.Rounds != selfJobRounds || st.Transmissions != selfJobTransmissions {
		t.Fatalf("rounds = %d, transmissions = %d; want %d and %d (quiescence)", st.Rounds, st.Transmissions, selfJobRounds, selfJobTransmissions)
	}
	if got := bytes.Count(res, []byte("\n")); got != st.Rounds+1 {
		t.Fatalf("result has %d lines, want %d", got, st.Rounds+1)
	}
}

// The measured outcome of selfJob(5).
const (
	selfJobRounds        = 24
	selfJobTransmissions = 1394
)

// localRun is one request run by the shared runner, away from any
// server: its JSONL round lines, streamed the way runJob streams them,
// and the trial. yieldAt > 0 yields at that round's barrier, checkpoints,
// and resumes from the checkpoint on a fresh engine, as a preempted job
// does.
func localRun(t *testing.T, req JobRequest, yieldAt int) ([]byte, *sim.Trial) {
	t.Helper()
	var lines bytes.Buffer
	var str *metrics.Streamer
	h := sim.Hooks{
		Record: true,
		Start: func(tr *sim.Trial) {
			str = metrics.NewStreamer(tr.Rec)
			if !tr.Resumed {
				lines.Write(str.RoundLine(0))
			}
		},
		OnRound: func(tr *sim.Trial) error {
			lines.Write(str.RoundLine(tr.Net.Round()))
			return nil
		},
	}
	if yieldAt > 0 {
		h.Barrier = func(n *core.Network) sim.BarrierOp {
			if n.Round() == yieldAt {
				return sim.OpYield
			}
			return sim.OpContinue
		}
	}
	sc := req.Scenario()
	tr, err := sc.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	if yieldAt > 0 {
		if tr.Status != sim.LoopYielded {
			t.Fatalf("local run ended %v before its yield at round %d", tr.Status, yieldAt)
		}
		var ckpt bytes.Buffer
		meta := sim.CheckpointMeta{Replica: 1, Seed: req.Seed}
		if err := sim.WriteCheckpoint(&ckpt, meta, tr.Net, tr.Rec); err != nil {
			t.Fatal(err)
		}
		h.Barrier = nil
		h.Resume = func(cfg core.Config, rec *metrics.Recorder) (*core.Network, bool, error) {
			net, _, err := sim.ReadCheckpoint(&ckpt, cfg, rec)
			return net, err == nil, err
		}
		if tr, err = sc.Run(h); err != nil {
			t.Fatal(err)
		}
		if !tr.Resumed {
			t.Fatal("local resume started fresh")
		}
	}
	return lines.Bytes(), tr
}

// TestLocalRunEqualsServed makes the JobRequest godoc's claim — a job is
// the experiment cmd/nocsim runs once — a byte-level fact. For each
// request, the shared runner's JSONL lines, the served result, the
// concatenated stream, the cache entry's payload and the one-replica
// metrics.WriteJSONL export (what nocsim -metrics writes) are one byte
// string, also when the job is preempted and resumed.
func TestLocalRunEqualsServed(t *testing.T) {
	faulty := JobRequest{
		Width: 8, Height: 8, Src: 0, Dst: 63, P: 0.5, TTL: 64, Seed: 7,
		Fault: FaultSpec{Upset: 0.1, DeadTiles: 3},
	}
	mixed := smallJob(11)
	mixed.Payload = 40
	mixed.Fault = FaultSpec{DeadLinks: 4, Overflow: 0.05, Sigma: 0.6}
	batch := faulty
	batch.Seed, batch.Priority = 2003, PriorityBatch
	selfBatch := selfJob(9)
	selfBatch.Priority = PriorityBatch
	cases := []struct {
		name      string
		req       JobRequest
		preemptAt int // > 0: preempt the served job, and yield the local run, at this round
	}{
		{"faults", faulty, 0},
		{"links, overflow, sigma, payload", mixed, 0},
		{"src == dst", selfJob(5), 0},
		{"batch preempted", batch, 3},
		{"src == dst preempted", selfBatch, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, straight := localRun(t, tc.req, 0)
			if got, _ := localRun(t, tc.req, tc.preemptAt); tc.preemptAt > 0 && !bytes.Equal(got, want) {
				t.Fatalf("local yield-and-resume differs from the straight run:\ngot:\n%s\nwant:\n%s", got, want)
			}
			agg, err := metrics.Merge([]*metrics.TimeSeries{straight.Rec.Series()})
			if err != nil {
				t.Fatal(err)
			}
			var export bytes.Buffer
			if err := metrics.WriteJSONL(&export, agg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(export.Bytes(), want) {
				t.Fatalf("one-replica WriteJSONL differs from the runner's lines:\nexport:\n%s\nlines:\n%s", export.Bytes(), want)
			}

			opts := Options{Workers: 1, CacheDir: t.TempDir()}
			var srv *Server
			var c *Client
			var sub SubmitResponse
			if tc.preemptAt > 0 {
				var p park
				srv, c, p = newParkedServer(t, opts, tc.preemptAt)
				sub = submit(t, c, tc.req)
				<-p.entered
				if _, err := c.Preempt(testCtx(t), sub.ID); err != nil {
					t.Fatalf("preempt: %v", err)
				}
				p.release()
			} else {
				srv, c = newTestServer(t, opts)
				sub = submit(t, c, tc.req)
			}
			// waitState also checks the result against the stream.
			st, streamed := waitState(t, c, sub.ID, StateDone)
			if !bytes.Equal(streamed, want) {
				t.Fatalf("served stream differs from the local run:\nserved:\n%s\nlocal:\n%s", streamed, want)
			}
			if tc.preemptAt > 0 && st.Preempts != 1 {
				t.Fatalf("preempts = %d, want 1", st.Preempts)
			}
			norm := tc.req
			norm.normalize()
			entry, _, ok := srv.cache.Get(norm.Key(), norm.canonical())
			if !ok || !bytes.Equal(entry, want) {
				t.Fatalf("cache entry (hit %v) differs from the local run", ok)
			}
			c0 := straight.Net.Counters()
			if st.Rounds != straight.Net.Round() || st.DeliveredRound != straight.Delivered ||
				st.Transmissions != c0.Energy.Transmissions {
				t.Fatalf("served status %+v; local run: rounds %d, delivered %d, transmissions %d",
					st, straight.Net.Round(), straight.Delivered, c0.Energy.Transmissions)
			}
		})
	}
}
