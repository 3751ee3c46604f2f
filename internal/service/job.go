package service

import (
	"sync"

	"repro/internal/sim"
)

// State is a job's position in its lifecycle state machine:
//
//	queued ──▶ running ──▶ done
//	  ▲           │  │
//	  │(requeue)  │  └──▶ failed
//	preempted ◀───┤
//	  │           └──▶ canceled
//	  └──▶ running (its parked trial continued) / canceled
//
// queued and preempted jobs wait in the scheduler; running jobs own a
// worker; a preempted job holds its parked trial; done, failed and
// canceled are terminal. A cache hit skips the machine entirely: the job
// is born done, its result in the cache entry.
type State string

// The job states.
const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: executing on a worker.
	StateRunning State = "running"
	// StatePreempted: stopped at a round barrier and requeued with its
	// engine parked in memory; a worker continues it bit-identically.
	StatePreempted State = "preempted"
	// StateDone: finished; the result is available.
	StateDone State = "done"
	// StateFailed: the simulation errored server-side.
	StateFailed State = "failed"
	// StateCanceled: canceled by the client before finishing.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Status is a job's externally visible condition, returned by
// GET /v1/jobs/{id} and carried in the SSE "done" event.
type Status struct {
	// ID is the job's identifier.
	ID string `json:"id"`
	// State is the lifecycle state.
	State State `json:"state"`
	// Priority is the job's scheduling class.
	Priority string `json:"priority"`
	// Rounds is the number of simulation rounds executed (and streamed)
	// so far; final once State is done.
	Rounds int `json:"rounds"`
	// DeliveredRound is the round the destination first received the
	// message, or -1 if (not yet) delivered.
	DeliveredRound int `json:"delivered_round"`
	// Transmissions is the run's total link transmissions (final states
	// only; 0 while running).
	Transmissions int `json:"transmissions"`
	// EnergyJ is the run's total communication energy in joules on the
	// 0.25um link technology (final states only; 0 while running).
	EnergyJ float64 `json:"energy_j"`
	// CacheHit reports whether the result was served from the on-disk
	// result cache instead of simulated.
	CacheHit bool `json:"cache_hit"`
	// Preempts counts how many times the job was parked at a round
	// barrier and requeued.
	Preempts int `json:"preempts"`
	// Error carries the failure detail when State is failed.
	Error *APIError `json:"error,omitempty"`
}

// Job is one accepted simulation. The immutable identity fields are set
// at submission; everything else is guarded by mu. Result bytes
// accumulate as newline-terminated JSONL round lines in lines, which
// only grows while the job runs — an appended line is immutable, so
// subscribers may retain references without copies. A done job whose
// result lives in its cache entry holds no lines at all: a done job
// always has line 0 otherwise.
type Job struct {
	// ID is the job's external identifier ("j-<n>").
	ID string
	// Req is the normalized request.
	Req JobRequest

	key   string // content-addressed result identity (JobRequest.Key)
	canon []byte // canonical request JSON (cache cross-serve guard)

	mu       sync.Mutex
	state    State
	lines    [][]byte   // per-round JSONL, lines[r] = round r; nil once on disk
	status   Status     // terminal summary, valid once state.Terminal()
	preempts int        // times preempted so far
	parked   *sim.Trial // the run a preempted job continues; nil otherwise
	cacheHit bool
	cancelRq bool          // cancellation requested
	yieldRq  bool          // preemption requested
	updated  chan struct{} // closed and replaced on every state/line change
}

// newJob builds an accepted job in StateQueued.
func newJob(id string, req JobRequest, key string, canon []byte) *Job {
	return &Job{
		ID: id, Req: req, key: key, canon: canon,
		state:   StateQueued,
		updated: make(chan struct{}),
	}
}

// broadcast wakes every subscriber. Callers hold mu.
func (j *Job) broadcast() {
	close(j.updated)
	j.updated = make(chan struct{})
}

// appendLine appends one immutable JSONL round line (copied) and wakes
// subscribers.
func (j *Job) appendLine(line []byte) {
	cp := append([]byte(nil), line...)
	j.mu.Lock()
	j.lines = append(j.lines, cp)
	j.broadcast()
	j.mu.Unlock()
}

// snapshot returns the lines appended since from, the current state,
// and the channel that will close on the next change — the SSE tail
// loop's read.
func (j *Job) snapshot(from int) (lines [][]byte, state State, updated chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.lines) {
		lines = j.lines[from:]
	}
	return lines, j.state, j.updated
}

// currentStatus renders the job's externally visible condition now.
func (j *Job) currentStatus() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return j.status
	}
	rounds := len(j.lines) - 1 // line 0 is round 0 (pre-run injections)
	if rounds < 0 {
		rounds = 0
	}
	return Status{
		ID: j.ID, State: j.state, Priority: j.Req.Priority,
		Rounds: rounds, DeliveredRound: -1,
		CacheHit: j.cacheHit, Preempts: j.preempts,
	}
}

// finish moves the job into terminal state st with summary status, and
// lets go of a parked trial. onDisk reports that the result now lives in
// the job's cache entry: the lines are dropped, and result reads go to
// the entry.
func (j *Job) finish(st Status, onDisk bool) {
	j.mu.Lock()
	j.state = st.State
	j.status = st
	j.parked = nil
	if onDisk {
		j.lines = nil
	}
	j.broadcast()
	j.mu.Unlock()
}

// requestCancel flags the job for cancellation. A queued or preempted
// job cannot cancel itself (no worker owns it), so the flag is applied
// either by the owning worker at the next round barrier or by the
// scheduler when it would next claim the job.
func (j *Job) requestCancel() {
	j.mu.Lock()
	j.cancelRq = true
	j.broadcast()
	j.mu.Unlock()
}

// requestPreempt flags a running job to yield at its next round
// barrier. Reports false if the job already has a pending preempt or
// is not running.
func (j *Job) requestPreempt() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.yieldRq || j.cancelRq {
		return false
	}
	j.yieldRq = true
	return true
}

// ctl reads the pending control flags — the worker's round-barrier
// check.
func (j *Job) ctl() (cancel, yield bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelRq, j.yieldRq
}

// claimRun transitions queued/preempted → running for a worker that
// just dequeued the job. It hands over the parked trial of a preempted
// job (nil for a queued one) and reports ok=false when the job is not
// claimable — canceled while waiting, in which case the scheduler
// finalizes the cancellation instead of running it.
func (j *Job) claimRun() (parked *sim.Trial, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRq || (j.state != StateQueued && j.state != StatePreempted) {
		return nil, false
	}
	parked, j.parked = j.parked, nil
	j.state = StateRunning
	j.yieldRq = false
	j.broadcast()
	return parked, true
}

// markPreempted transitions running → preempted, parking t, which
// stopped at a round barrier, until a worker claims the job again.
func (j *Job) markPreempted(t *sim.Trial) {
	j.mu.Lock()
	j.parked = t
	j.state = StatePreempted
	j.yieldRq = false
	j.preempts++
	j.broadcast()
	j.mu.Unlock()
}
