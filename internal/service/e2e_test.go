package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// End-to-end integration tests: a real Server behind httptest, driven
// through a Client exactly as any caller would. The suite runs under
// -race in the servicegate CI job.

// newTestServer builds a Server with opts, an httptest front end, and a
// Client on it. Cleanup stops both.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, NewClient(ts.URL, ts.Client())
}

// park holds the first job to reach a chosen round inside that round, so
// control requests land at an exact barrier.
type park struct {
	entered chan struct{} // closed once a job is held
	release func()        // lets it go; idempotent
}

// newParkedServer is newTestServer with a round hook that parks the first
// job to reach round. A round hook already in opts runs after it.
func newParkedServer(t *testing.T, opts Options, round int) (*Server, *Client, park) {
	t.Helper()
	p := park{entered: make(chan struct{})}
	gate := make(chan struct{})
	var held atomic.Bool
	next := opts.roundHook
	opts.roundHook = func(id string, r int) {
		if r == round && held.CompareAndSwap(false, true) {
			close(p.entered)
			<-gate
		}
		if next != nil {
			next(id, r)
		}
	}
	p.release = sync.OnceFunc(func() { close(gate) })
	s, c := newTestServer(t, opts)
	t.Cleanup(p.release) // runs first: Close waits for the parked worker
	return s, c, p
}

// smallJob is a quick deterministic request: ~10 hops on a 6x6 mesh.
func smallJob(seed uint64) JobRequest {
	return JobRequest{
		Width: 6, Height: 6, Src: 0, Dst: 35,
		P: 0.6, TTL: 64, Seed: seed, MaxRounds: 80,
	}
}

// longJob never delivers (p=0 keeps the message parked at the source)
// and never quiesces before its TTL, so it burns the full round budget —
// a deterministic long-running job.
func longJob(seed uint64) JobRequest {
	return JobRequest{
		Width: 6, Height: 6, Src: 0, Dst: 35,
		P: 0, TTL: 250, Seed: seed, MaxRounds: 150,
	}
}

// testCtx returns a context bounded well under the suite's timeout.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// submit submits req through c, failing the test on any error.
func submit(t *testing.T, c *Client, req JobRequest) SubmitResponse {
	t.Helper()
	sub, err := c.Submit(testCtx(t), req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return sub
}

// waitState streams a job to its end, checks that it ended in want and,
// if done, that the streamed lines equal its result byte for byte, and
// returns the done event's status and the streamed series.
func waitState(t *testing.T, c *Client, id string, want State) (Status, []byte) {
	t.Helper()
	var streamed bytes.Buffer
	st, err := c.Stream(testCtx(t), id, func(line []byte) { streamed.Write(line) })
	if err != nil || st.State != want {
		t.Fatalf("job %s ended %s (err %v), want %s", id, st.State, err, want)
	}
	if want == StateDone {
		if res, err := c.Result(testCtx(t), id); err != nil || !bytes.Equal(res, streamed.Bytes()) {
			t.Fatalf("job %s: result (err %v) differs from its stream:\nresult:\n%s\nstream:\n%s", id, err, res, streamed.Bytes())
		}
	}
	return st, streamed.Bytes()
}

// wantAPIError fails the test unless err is an *APIError with code (whose
// HTTP status the client has checked is httpStatus(code)).
func wantAPIError(t *testing.T, err error, code string) {
	t.Helper()
	var aerr *APIError
	if !errors.As(err, &aerr) || aerr.Code != code {
		t.Fatalf("err = %v, want %s (HTTP %d)", err, code, httpStatus(code))
	}
}

// TestSubmitStreamComplete is the happy path: submit, stream the rounds
// live, and verify the concatenated stream is byte-identical to the
// result artifact and consistent with the final status.
func TestSubmitStreamComplete(t *testing.T) {
	_, c, p := newParkedServer(t, Options{Workers: 2}, 1)
	sub := submit(t, c, smallJob(7))
	if sub.State.Terminal() {
		t.Fatalf("submit answered a finished %s job, want 202", sub.State)
	}
	<-p.entered // the stream below opens on a running job, released by its first line

	var streamed bytes.Buffer
	final, err := c.Stream(testCtx(t), sub.ID, func(line []byte) { streamed.Write(line); p.release() })
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if final.State != StateDone || final.DeliveredRound < 1 || final.Transmissions <= 0 || final.EnergyJ <= 0 {
		t.Fatalf("done event = %+v, want done, delivered_round >= 1 and non-zero counters", final)
	}

	res, err := c.Result(testCtx(t), sub.ID)
	if err != nil || !bytes.Equal(streamed.Bytes(), res) {
		t.Fatalf("streamed series differs from result artifact (err %v):\nstream:\n%s\nresult:\n%s", err, streamed.Bytes(), res)
	}
	// rounds+1 lines: line 0 is round 0 (the pre-run injection).
	if got := bytes.Count(res, []byte("\n")); got != final.Rounds+1 {
		t.Fatalf("result has %d lines, status says %d rounds", got, final.Rounds)
	}
	if st, err := c.Status(testCtx(t), sub.ID); err != nil || st != final {
		t.Fatalf("status after done = %+v (err %v), stream said %+v", st, err, final)
	}
}

// TestCancelMidRun cancels a running job at a round barrier and
// verifies it lands in canceled, not done.
func TestCancelMidRun(t *testing.T) {
	_, c, p := newParkedServer(t, Options{Workers: 1}, 1)
	sub := submit(t, c, longJob(3))
	<-p.entered // the worker is parked inside round 1

	if _, err := c.Cancel(testCtx(t), sub.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	p.release() // let the worker reach the barrier

	st, _ := waitState(t, c, sub.ID, StateCanceled)
	if st.Rounds >= longJob(3).MaxRounds {
		t.Fatalf("canceled job ran its full %d-round budget", st.Rounds)
	}
	// The result of a canceled job is a conflict, not a partial series.
	_, err := c.Result(testCtx(t), sub.ID)
	wantAPIError(t, err, ErrConflict)
}

// TestCancelQueuedJob cancels a job that never got a worker.
func TestCancelQueuedJob(t *testing.T) {
	_, c, p := newParkedServer(t, Options{Workers: 1, QueueCap: 4}, 1)
	running := submit(t, c, longJob(1))
	<-p.entered
	queued := submit(t, c, longJob(2))

	if _, err := c.Cancel(testCtx(t), queued.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	p.release()

	if st, _ := waitState(t, c, queued.ID, StateCanceled); st.Rounds != 0 {
		t.Fatalf("queued job executed %d rounds after cancel", st.Rounds)
	}
	waitState(t, c, running.ID, StateDone)
}

// TestPreemptResumeByteIdentical is the tentpole invariant: a job
// preempted at a round barrier, parked, and continued produces a result
// byte-identical to the same job run uninterrupted. A parked job's engine
// stays in memory: from submission to Close the server writes nothing
// outside its cache directory, neither in the temporary directory nor in
// the working directory.
func TestPreemptResumeByteIdentical(t *testing.T) {
	req := JobRequest{
		Width: 6, Height: 6, Src: 0, Dst: 35,
		P: 0.45, TTL: 64, Seed: 42, MaxRounds: 100,
		Priority: PriorityBatch,
	}

	// Reference: the same request, never preempted.
	_, ref := newTestServer(t, Options{Workers: 1})
	refSub := submit(t, ref, req)
	refDone, want := waitState(t, ref, refSub.ID, StateDone)

	// Preempted: park the worker inside round 3, land the preempt, then
	// let it reach the barrier and yield. Round 6 runs after the job was
	// taken up again.
	opts := Options{Workers: 1, CacheDir: t.TempDir()}
	stray := strayFiles(t)
	midRun := make(chan []string, 1)
	opts.roundHook = func(_ string, r int) {
		if r == 6 {
			midRun <- stray()
		}
	}
	srv, c, p := newParkedServer(t, opts, 3)
	sub := submit(t, c, req)
	<-p.entered

	if _, err := c.Preempt(testCtx(t), sub.ID); err != nil {
		t.Fatalf("preempt: %v", err)
	}
	p.release()

	done, got := waitState(t, c, sub.ID, StateDone)
	if done.Preempts != 1 {
		t.Fatalf("preempts = %d, want 1", done.Preempts)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("preempted+resumed result differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if done.DeliveredRound != refDone.DeliveredRound || done.Transmissions != refDone.Transmissions || done.EnergyJ != refDone.EnergyJ {
		t.Fatalf("final status diverged: got %+v want %+v", done, refDone)
	}

	st := srv.Stats()
	if st.Simulations != 1 || st.Resumes != 1 || st.Preemptions != 1 {
		t.Fatalf("stats = %+v, want simulations=1 resumes=1 preemptions=1", st)
	}
	select {
	case left := <-midRun:
		if len(left) != 0 {
			t.Fatalf("after its preemption the job's server had written outside its cache: %v", left)
		}
	default:
		t.Fatal("the job never ran round 6")
	}
	srv.Close()
	if left := stray(); len(left) != 0 {
		t.Fatalf("after Close the server had written outside its cache: %v", left)
	}
}

// strayFiles points the temporary directory at a fresh empty one and
// returns a probe listing every file or directory made since, there or
// in the working directory. The probe may run on any goroutine.
func strayFiles(t *testing.T) func() []string {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	before, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	had := map[string]bool{}
	for _, e := range before {
		had[e.Name()] = true
	}
	return func() []string {
		var made []string
		filepath.WalkDir(tmp, func(path string, d fs.DirEntry, err error) error {
			if path != tmp {
				made = append(made, path)
			}
			return err
		})
		now, err := os.ReadDir(".")
		if err != nil {
			return append(made, err.Error())
		}
		for _, e := range now {
			if !had[e.Name()] {
				made = append(made, e.Name())
			}
		}
		return made
	}
}

// TestParkedJobsCountAgainstQueueCap pins the bound on parked engines:
// a preempted job waits in the queue with its engine, and admission
// counts it against QueueCap, so at most QueueCap + Workers jobs ever
// wait and a queue filled by parked jobs refuses the next submission.
// Jobs are preempted both ways: by POST …/preempt and by the scheduler,
// for waiting interactive work. Every job is held at its first round
// until the test lets it go.
func TestParkedJobsCountAgainstQueueCap(t *testing.T) {
	const workers, queueCap = 2, 2
	var srv *Server
	var mu sync.Mutex
	maxQueued := 0
	h := newHolds(1)
	opts := Options{Workers: workers, QueueCap: queueCap}
	opts.roundHook = func(id string, r int) {
		_, queued, _, _ := srv.sched.snapshot()
		mu.Lock()
		maxQueued = max(maxQueued, queued)
		mu.Unlock()
		h.hook(id, r)
	}
	srv, c := newTestServer(t, opts)
	t.Cleanup(h.end) // runs first: Close waits for held workers
	saturated := func(when string) {
		t.Helper()
		_, err := c.Submit(testCtx(t), longJob(99))
		var aerr *APIError
		if !errors.As(err, &aerr) || aerr.Code != ErrSaturated {
			t.Fatalf("%s: submission answered %v, want %s", when, err, ErrSaturated)
		}
	}
	batch := func(seed uint64) JobRequest {
		r := longJob(seed)
		r.Priority = PriorityBatch
		return r
	}

	a, b := submit(t, c, batch(1)), submit(t, c, batch(2))
	h.hold(t, a.ID)
	h.hold(t, b.ID)
	preemptByHand(t, c, a.ID)       // by hand
	i1 := submit(t, c, smallJob(3)) // the scheduler preempts b for it
	i2 := submit(t, c, smallJob(4)) // the queue is full
	saturated("queue full of fresh jobs")

	h.release(a.ID) // a and b yield, park, and wait behind i1 and i2
	h.release(b.ID)
	h.hold(t, i1.ID)
	h.hold(t, i2.ID)
	st := srv.Stats()
	if st.Preemptions != 2 || st.Queued != queueCap || st.Running != workers {
		t.Fatalf("stats = %+v, want 2 preemptions, %d parked jobs queued, %d running", st, queueCap, workers)
	}
	saturated("queue full of parked jobs")

	h.release(i1.ID)
	h.release(i2.ID)
	for id, preempts := range map[string]int{a.ID: 1, b.ID: 1, i1.ID: 0, i2.ID: 0} {
		if st, _ := waitState(t, c, id, StateDone); st.Preempts != preempts {
			t.Fatalf("job %s preempted %d times, want %d", id, st.Preempts, preempts)
		}
	}
	if st := srv.Stats(); st.Rejected != 2 || st.Preemptions != 2 || st.Resumes != 2 {
		t.Fatalf("stats = %+v, want 2 rejected, 2 preemptions and 2 resumes", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if maxQueued > queueCap+workers {
		t.Fatalf("%d jobs waited at once, want at most QueueCap + Workers = %d", maxQueued, queueCap+workers)
	}
}

// holds parks every job that reaches a chosen round until the test lets
// it go; a job let go before it arrives passes straight through. Install
// hook as (or in) the round hook, and register end as a cleanup after
// the server's, so that it runs first: Close waits for held workers.
type holds struct {
	round          int
	mu             sync.Mutex
	entered, gates map[string]chan struct{}
	ended          chan struct{}
}

func newHolds(round int) *holds {
	return &holds{
		round:   round,
		entered: map[string]chan struct{}{},
		gates:   map[string]chan struct{}{},
		ended:   make(chan struct{}),
	}
}

func (h *holds) slot(m map[string]chan struct{}, id string) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m[id] == nil {
		m[id] = make(chan struct{})
	}
	return m[id]
}

func (h *holds) hook(id string, r int) {
	if r != h.round {
		return
	}
	close(h.slot(h.entered, id))
	select {
	case <-h.slot(h.gates, id):
	case <-h.ended:
	}
}

// hold waits until job id is held.
func (h *holds) hold(t *testing.T, id string) {
	t.Helper()
	select {
	case <-h.slot(h.entered, id):
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached round %d", id, h.round)
	}
}

func (h *holds) release(id string) { close(h.slot(h.gates, id)) }
func (h *holds) end()              { close(h.ended) }

// preemptByHand asks job id to yield through POST …/preempt.
func preemptByHand(t *testing.T, c *Client, id string) {
	t.Helper()
	if _, err := c.Preempt(testCtx(t), id); err != nil {
		t.Fatalf("preempt %s: %v", id, err)
	}
}

// TestHandPreemptionsSpareBatch pins the requeue of a preempted job: it
// hands back its worker slot in the same step, so the preemption check
// never counts the yielding worker as busy. While a batch job holds one
// of two workers, two interactive jobs preempted by hand on the other
// cost it nothing; only an interactive job that has to wait costs it
// its one preemption.
func TestHandPreemptionsSpareBatch(t *testing.T) {
	h := newHolds(2)
	srv, c, p := newParkedServer(t, Options{Workers: 2, roundHook: h.hook}, 1)
	t.Cleanup(h.end)

	batch := longJob(31)
	batch.Priority = PriorityBatch
	b := submit(t, c, batch)
	<-p.entered // b is held in round 1 on one worker
	for _, seed := range []uint64{32, 33} {
		i := submit(t, c, longJob(seed)) // interactive, on the other worker
		h.hold(t, i.ID)
		preemptByHand(t, c, i.ID)
		h.release(i.ID) // i yields, is requeued and taken up again
		if st, _ := waitState(t, c, i.ID, StateDone); st.Preempts != 1 {
			t.Fatalf("job %s preempted %d times, want 1", i.ID, st.Preempts)
		}
	}
	p.release()
	h.hold(t, b.ID)

	running := submit(t, c, longJob(34))
	h.hold(t, running.ID)
	waiting := submit(t, c, smallJob(35)) // both workers busy: b must yield
	h.release(waiting.ID)
	h.release(b.ID)
	h.release(running.ID)
	for _, id := range []string{waiting.ID, running.ID} {
		waitState(t, c, id, StateDone)
	}
	if st, _ := waitState(t, c, b.ID, StateDone); st.Preempts != 1 {
		t.Fatalf("batch job preempted %d times, want 1", st.Preempts)
	}
	if st := srv.Stats(); st.Preemptions != 3 {
		t.Fatalf("stats = %+v, want 3 preemptions", st)
	}
}

// TestRequeuedJobCountsAsRunning: a job preempted while another worker
// is idle may be taken up by that worker at once, and Stats counts it
// as running while it runs there.
func TestRequeuedJobCountsAsRunning(t *testing.T) {
	h := newHolds(2)
	srv, c, p := newParkedServer(t, Options{Workers: 2, roundHook: h.hook}, 1)
	t.Cleanup(h.end)

	j := submit(t, c, longJob(41))
	<-p.entered
	preemptByHand(t, c, j.ID)
	p.release()
	h.hold(t, j.ID) // taken up again, on either worker
	if st := srv.Stats(); st.Running != 1 {
		t.Fatalf("stats = %+v while the requeued job runs, want 1 running", st)
	}
	h.release(j.ID)
	if st, _ := waitState(t, c, j.ID, StateDone); st.Preempts != 1 {
		t.Fatalf("job preempted %d times, want 1", st.Preempts)
	}
}

// TestRequeueReturnsSlot pins the scheduler half of the two tests above:
// requeuing a preempted job frees its worker slot in the same critical
// section, before any worker can claim the job again.
func TestRequeueReturnsSlot(t *testing.T) {
	s := newScheduler(2, 4)
	j := newJob("j", longJob(51), "", nil)
	if err := s.enqueue(j, false); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.next(); got != j {
		t.Fatalf("claimed %v, want the queued job", got)
	}
	j.markPreempted(nil)
	if err := s.enqueue(j, true); err != nil {
		t.Fatal(err)
	}
	if running, queued, _, _ := s.snapshot(); running != 0 || queued != 1 {
		t.Fatalf("after the requeue: %d running, %d queued; want 0 and 1", running, queued)
	}
}

// TestInteractivePreemptsBatch verifies the scheduler policy: with the
// fleet saturated by a batch job, an interactive submission forces a
// yield and finishes first.
func TestInteractivePreemptsBatch(t *testing.T) {
	// The batch job is the first to reach round 2, so it alone parks.
	srv, c, p := newParkedServer(t, Options{Workers: 1}, 2)

	batch := longJob(11)
	batch.Priority = PriorityBatch
	bsub := submit(t, c, batch)
	<-p.entered // batch job is parked mid-round-2 on the only worker

	isub := submit(t, c, smallJob(12))
	p.release() // batch reaches its barrier and yields

	waitState(t, c, isub.ID, StateDone)
	bdone, _ := waitState(t, c, bsub.ID, StateDone)
	if bdone.Preempts < 1 {
		t.Fatalf("batch job preempts = %d, want >= 1", bdone.Preempts)
	}
	if st := srv.Stats(); st.Preemptions < 1 || st.Resumes < 1 {
		t.Fatalf("stats = %+v, want a preemption and a resume", st)
	}
}

// TestAdmissionControl fills the queue and verifies the structured 429.
func TestAdmissionControl(t *testing.T) {
	_, c, p := newParkedServer(t, Options{Workers: 1, QueueCap: 1}, 1)

	submit(t, c, longJob(21)) // occupies the worker
	<-p.entered
	submit(t, c, longJob(22)) // fills the queue
	_, err := c.Submit(testCtx(t), longJob(23))
	wantAPIError(t, err, ErrSaturated)
	st, err := c.Stats(testCtx(t))
	if err != nil || st.Rejected != 1 {
		t.Fatalf("stats = %+v (err %v), want Rejected 1", st, err)
	}
}

// TestMalformedConfigsRejected pins the structured error surface:
// syntactically broken and semantically invalid submissions get typed,
// machine-readable rejections — never a 500, never an accepted job.
func TestMalformedConfigsRejected(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1, MaxJobRounds: 500, MaxTiles: 1024})
	valid := func(mut func(*JobRequest)) []byte {
		r := smallJob(1)
		mut(&r)
		b, _ := json.Marshal(r)
		return b
	}
	cases := []struct {
		name    string
		body    []byte
		wantErr string // both codes are HTTP 400
	}{
		{"truncated json", []byte(`{"width": 4,`), ErrBadJSON},
		{"wrong type", []byte(`{"width": "four"}`), ErrBadJSON},
		{"unknown field", []byte(`{"width": 4, "height": 4, "warp": 9}`), ErrBadJSON},
		{"zero size", valid(func(r *JobRequest) { r.Width = 0 }), ErrInvalidConfig},
		{"too many tiles", valid(func(r *JobRequest) { r.Width, r.Height = 64, 64 }), ErrInvalidConfig},
		{"src out of range", valid(func(r *JobRequest) { r.Src = 99 }), ErrInvalidConfig},
		{"p out of range", valid(func(r *JobRequest) { r.P = 1.5 }), ErrInvalidConfig},
		{"round budget over cap", valid(func(r *JobRequest) { r.MaxRounds = 100000 }), ErrInvalidConfig},
		{"bogus priority", valid(func(r *JobRequest) { r.Priority = "urgent" }), ErrInvalidConfig},
		{"fault upset over 1", valid(func(r *JobRequest) { r.Fault.Upset = 2 }), ErrInvalidConfig},
		{"negative dead tiles", valid(func(r *JobRequest) { r.Fault.DeadTiles = -1 }), ErrInvalidConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.submitRaw(testCtx(t), tc.body)
			wantAPIError(t, err, tc.wantErr)
		})
	}
	if st := srv.Stats(); st.Accepted != 0 || st.Simulations != 0 {
		t.Fatalf("malformed submissions reached the fleet: %+v", st)
	}
}

// TestUnknownJob404s pins the not_found surface across all job routes.
func TestUnknownJob404s(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	calls := clientCalls(c, "j-999999")
	delete(calls, "submit")
	delete(calls, "stats")
	for route, call := range calls {
		var aerr *APIError
		if err := call(testCtx(t)); !errors.As(err, &aerr) || aerr.Code != ErrNotFound {
			t.Errorf("%s: err = %v, want %s", route, err, ErrNotFound)
		}
	}
}

// TestStreamReplayAfterCompletion verifies a late subscriber to a
// finished job replays the full series immediately.
func TestStreamReplayAfterCompletion(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	sub := submit(t, c, smallJob(9))
	_, res := waitState(t, c, sub.ID, StateDone)

	var replay bytes.Buffer
	if _, err := c.Stream(testCtx(t), sub.ID, func(line []byte) { replay.Write(line) }); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if !bytes.Equal(replay.Bytes(), res) {
		t.Fatal("late stream replay differs from the result artifact")
	}
}

// failingWriter is a ResponseWriter and Flusher whose writes fail, as
// they do once the client has gone away.
type failingWriter struct{ *httptest.ResponseRecorder }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestStreamStopsAtFailedWrite verifies handleStream returns at its first
// failed write instead of following a live job to its end.
func TestStreamStopsAtFailedWrite(t *testing.T) {
	srv, c, p := newParkedServer(t, Options{Workers: 1}, 1)
	sub := submit(t, c, longJob(5))
	<-p.entered // the job stays live until released

	srv.mu.Lock()
	j := srv.jobs[sub.ID]
	srv.mu.Unlock()
	returned := make(chan struct{})
	go func() {
		srv.handleStream(failingWriter{httptest.NewRecorder()}, httptest.NewRequest(http.MethodGet, "/", nil), j)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("handleStream still running a second after its writes failed")
	}
}

// stalledWriter is a ResponseWriter whose client never reads: a write
// blocks until a write deadline is set and then fails, as a connection's
// write does once its deadline passes. Without a deadline it blocks until
// the test ends.
type stalledWriter struct {
	*httptest.ResponseRecorder
	set      chan struct{} // closed by the first SetWriteDeadline
	end      chan struct{} // closed at test end
	once     sync.Once
	deadline atomic.Int64 // unix nanoseconds of the last deadline
}

func (w *stalledWriter) SetWriteDeadline(d time.Time) error {
	w.deadline.Store(d.UnixNano())
	w.once.Do(func() { close(w.set) })
	return nil
}

func (w *stalledWriter) Write([]byte) (int, error) {
	select {
	case <-w.set:
		return 0, os.ErrDeadlineExceeded
	case <-w.end:
		return 0, errors.New("test ended")
	}
}

// TestStreamStalledReaderReleased verifies that a stream whose client
// stops reading gives every write a deadline at most streamWriteTimeout
// ahead, and returns once it passes, while the job is still live.
func TestStreamStalledReaderReleased(t *testing.T) {
	srv, c, p := newParkedServer(t, Options{Workers: 1}, 1)
	sub := submit(t, c, longJob(7))
	<-p.entered

	srv.mu.Lock()
	j := srv.jobs[sub.ID]
	srv.mu.Unlock()
	w := &stalledWriter{ResponseRecorder: httptest.NewRecorder(), set: make(chan struct{}), end: make(chan struct{})}
	defer close(w.end)
	start := time.Now()
	returned := make(chan struct{})
	go func() {
		srv.handleStream(w, httptest.NewRequest(http.MethodGet, "/", nil), j)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("handleStream still blocked in a write to a client that stopped reading: no write deadline")
	}
	if d := time.Unix(0, w.deadline.Load()); d.After(time.Now().Add(streamWriteTimeout)) || d.Before(start) {
		t.Fatalf("write deadline %v, want within %v of the write", d, streamWriteTimeout)
	}
}

// TestStreamHeartbeatWhileParked opens a raw stream and a Client stream
// on a job parked before its first round, with a short heartbeat. The
// raw reader must see a keepalive comment while the job is parked; once
// it is released, both streams must carry exactly the job's result.
func TestStreamHeartbeatWhileParked(t *testing.T) {
	srv, c, p := newParkedServer(t, Options{Workers: 1}, 1)
	sub := submit(t, c, smallJob(62))
	<-p.entered
	srv.mu.Lock()
	j := srv.jobs[sub.ID]
	srv.mu.Unlock()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.stream(w, r, j, 5*time.Millisecond)
	}))
	defer ts.Close()

	ctx := testCtx(t)
	var viaClient bytes.Buffer
	clientDone := make(chan error, 1)
	go func() {
		_, err := NewClient(ts.URL, ts.Client()).Stream(ctx, sub.ID, func(line []byte) { viaClient.Write(line) })
		clientDone <- err
	}()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var data bytes.Buffer
	event, keptAlive := "", false
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		line := sc.Bytes()
		name, isEvent := bytes.CutPrefix(line, []byte(sseEvent))
		switch {
		case isEvent:
			event = string(name)
		case !keptAlive && string(line)+"\n\n" == sseKeepalive:
			keptAlive = true
			p.release()
		case event == eventRound && bytes.HasPrefix(line, []byte(sseData)):
			data.Write(line[len(sseData):])
			data.WriteByte('\n')
		}
	}
	if !keptAlive {
		t.Fatal("no keepalive while the job was parked")
	}
	if err := <-clientDone; err != nil {
		t.Fatalf("Client.Stream across keepalives: %v", err)
	}
	_, want := waitState(t, c, sub.ID, StateDone)
	if !bytes.Equal(viaClient.Bytes(), want) || !bytes.Equal(data.Bytes(), want) {
		t.Fatalf("streams with keepalives differ from the result:\nclient:\n%s\nraw:\n%s\nresult:\n%s", viaClient.Bytes(), data.Bytes(), want)
	}
}

// TestHealthzFlipsOnDrain pins the load-balancer contract.
func TestHealthzFlipsOnDrain(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1})
	healthz := func() int {
		t.Helper()
		resp, err := c.hc.Get(c.base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("healthz before drain = %d", code)
	}
	if err := srv.Drain(testCtx(t)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d, want 503", code)
	}
	_, err := c.Submit(testCtx(t), smallJob(5))
	wantAPIError(t, err, ErrDraining)
}
