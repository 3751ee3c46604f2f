package service

import (
	"context"
	"sync"

	"repro/internal/sim"
)

// scheduler is the admission-controlled two-class job queue feeding the
// bounded worker fleet. Interactive jobs always dequeue before batch
// jobs, and when every worker is busy while an interactive job waits,
// one running batch job is asked to yield at its next round barrier
// (preemption); requeued preempted jobs go to the front of the batch
// queue so they resume before fresh batch work. Admission control is a
// hard bound on the number of waiting jobs: past it, submissions are
// rejected with ErrSaturated rather than queued without bound.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	interactive []*Job
	batch       []*Job
	queueCap    int

	running    map[string]*Job // by job ID
	workers    int
	maxRunning int // high-water mark of concurrently running jobs

	draining bool
	closed   bool
}

// newScheduler builds a scheduler for a fleet of workers with at most
// queueCap waiting jobs.
func newScheduler(workers, queueCap int) *scheduler {
	s := &scheduler{
		queueCap: queueCap,
		workers:  workers,
		running:  map[string]*Job{},
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue admits j, or reports the admission error (saturated,
// draining, closed). admitted=true bypasses the queue cap and the
// draining check: a preempted job being requeued was already admitted,
// and refusing it would lose an accepted job.
func (s *scheduler) enqueue(j *Job, admitted bool) *APIError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return apiErrorf(ErrDraining, "server is shut down")
	}
	if !admitted {
		if s.draining {
			return apiErrorf(ErrDraining, "server is draining; not accepting jobs")
		}
		if len(s.interactive)+len(s.batch) >= s.queueCap {
			return apiErrorf(ErrSaturated, "job queue is full (%d waiting)", s.queueCap)
		}
	}
	if j.Req.Priority == PriorityInteractive {
		s.interactive = append(s.interactive, j)
		s.maybePreemptLocked()
	} else if admitted {
		// Requeued preempted job: resume before fresh batch work.
		s.batch = append([]*Job{j}, s.batch...)
	} else {
		s.batch = append(s.batch, j)
	}
	s.cond.Broadcast()
	return nil
}

// maybePreemptLocked asks one running batch job to yield when every
// worker is busy and interactive work is waiting. Callers hold mu.
func (s *scheduler) maybePreemptLocked() {
	if len(s.running) < s.workers || len(s.interactive) == 0 {
		return
	}
	for _, j := range s.running {
		if j.Req.Priority == PriorityBatch && j.requestPreempt() {
			return
		}
	}
}

// next blocks until a job is claimable and returns it with its parked
// trial (nil unless it was preempted), or returns nil when the
// scheduler is closed. Jobs canceled while waiting are claimed,
// reported via the canceled return, and finalized by the caller — never
// run.
func (s *scheduler) next() (j *Job, parked *sim.Trial, canceled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, nil, false
		}
		if j := s.popLocked(); j != nil {
			parked, ok := j.claimRun()
			if !ok {
				// Canceled while waiting; hand it back for finalization.
				return j, nil, true
			}
			s.running[j.ID] = j
			if len(s.running) > s.maxRunning {
				s.maxRunning = len(s.running)
			}
			return j, parked, false
		}
		s.cond.Wait()
	}
}

// popLocked removes and returns the next waiting job (interactive
// first), or nil. Callers hold mu.
func (s *scheduler) popLocked() *Job {
	if len(s.interactive) > 0 {
		j := s.interactive[0]
		s.interactive = s.interactive[1:]
		return j
	}
	if len(s.batch) > 0 {
		j := s.batch[0]
		s.batch = s.batch[1:]
		return j
	}
	return nil
}

// release returns j's worker slot to the pool after the job ran (to
// completion, preemption, cancellation, or failure).
func (s *scheduler) release(j *Job) {
	s.mu.Lock()
	delete(s.running, j.ID)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// snapshot returns (running, queued, maxRunning, draining).
func (s *scheduler) snapshot() (running, queued, maxRunning int, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.running), len(s.interactive) + len(s.batch), s.maxRunning, s.draining
}

// drain stops admission; already-accepted jobs (queued, running,
// preempted) still run to completion.
func (s *scheduler) drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// awaitIdle blocks until no job is waiting or running, or ctx expires.
func (s *scheduler) awaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for (len(s.interactive)+len(s.batch) > 0 || len(s.running) > 0) && !s.closed {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Wake the waiter goroutine so it can observe closed later; it
		// holds no resources beyond the cond wait.
		s.cond.Broadcast()
		return ctx.Err()
	}
}

// close stops the workers: next returns nil once the queues drain of
// claimable work. Idempotent.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
