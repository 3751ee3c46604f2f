// Package service is the simulation-as-a-service layer: a long-running
// HTTP/JSON job server over the stochastic-communication engine. It
// turns the library's single-shot experiment stack (internal/core,
// internal/sim, internal/metrics) into a served system for heavy
// multi-tenant traffic:
//
//   - POST /v1/jobs accepts experiment configs and runs them on a
//     bounded worker fleet with admission control and per-job round
//     budgets;
//   - GET /v1/jobs/{id}/stream streams the per-round metric series as
//     server-sent events while the run executes, byte-identical to the
//     finished JSONL artifact (metrics.Streamer);
//   - long batch jobs yield to interactive traffic at round barriers,
//     keep their engine in memory while they wait, and continue
//     bit-identically (sim.Loop, sim.Hooks.Parked);
//   - results are stored in an on-disk cache keyed by a hash of the
//     canonical request (JobRequest.Key), so identical requests
//     are served from disk instead of re-simulated, with singleflight
//     deduplication of concurrent identical submissions.
//
// docs/SERVICE.md is the full API reference, lifecycle state machine,
// cache-key derivation and preemption semantics.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Options configures a Server. The zero value is serviceable: defaults
// are filled by New.
type Options struct {
	// Workers bounds the simulation worker fleet; 0 defaults to
	// runtime.GOMAXPROCS(0). The server never runs more than Workers
	// simulations concurrently.
	Workers int
	// QueueCap is the admission bound: the maximum number of accepted
	// jobs waiting for a worker. Submissions past it are rejected with
	// HTTP 429 / ErrSaturated. 0 defaults to 64.
	QueueCap int
	// CacheDir roots the on-disk result cache; "" disables caching. It
	// is the only place the server writes to.
	CacheDir string
	// MaxJobRounds caps any single job's round budget; 0 defaults to
	// 100000.
	MaxJobRounds int
	// MaxTiles caps the accepted fabric size in tiles; 0 defaults to
	// 65536 (a 256×256 mesh; larger fabrics belong in offline campaigns,
	// not a shared daemon).
	MaxTiles int

	// roundHook, if set, observes every executed round of every job
	// (after the round's line is streamed). Test seam: e2e tests use it
	// to hold a job at a barrier while control requests land.
	roundHook func(jobID string, round int)
}

// Stats is the server's cumulative counter snapshot (GET /v1/stats).
type Stats struct {
	// Submitted counts POST /v1/jobs requests that parsed and validated.
	Submitted int64 `json:"submitted"`
	// Accepted counts submissions admitted as new jobs.
	Accepted int64 `json:"accepted"`
	// Rejected counts submissions refused by admission control
	// (saturated or draining).
	Rejected int64 `json:"rejected"`
	// Deduped counts submissions folded into an in-flight identical job
	// (singleflight).
	Deduped int64 `json:"deduped"`
	// CacheHits counts submissions served from the result cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts cache lookups that found no servable entry.
	CacheMisses int64 `json:"cache_misses"`
	// CacheCorrupt counts cache entries that did not decode and were
	// deleted, on a lookup or a result read (each lookup of one is also a
	// miss).
	CacheCorrupt int64 `json:"cache_corrupt"`
	// Simulations counts fresh engine runs started — the
	// re-simulation detector: a cache hit or dedup leaves it unchanged.
	Simulations int64 `json:"simulations"`
	// Resumes counts continuations of parked preempted jobs.
	Resumes int64 `json:"resumes"`
	// Preemptions counts jobs parked at a barrier and requeued.
	Preemptions int64 `json:"preemptions"`
	// Completed counts jobs that reached StateDone.
	Completed int64 `json:"completed"`
	// Canceled counts jobs that reached StateCanceled.
	Canceled int64 `json:"canceled"`
	// Failed counts jobs that reached StateFailed.
	Failed int64 `json:"failed"`
	// Running is the number of jobs executing right now.
	Running int `json:"running"`
	// Queued is the number of accepted jobs waiting for a worker.
	Queued int `json:"queued"`
	// MaxRunning is the high-water mark of concurrent running jobs —
	// never exceeds Workers.
	MaxRunning int `json:"max_running"`
	// Workers is the configured fleet bound.
	Workers int `json:"workers"`
	// Draining reports whether the server has stopped accepting jobs.
	Draining bool `json:"draining"`
}

// Server is the simulation-as-a-service daemon: job store, scheduler,
// worker fleet, result cache, and HTTP surface. Build with New, expose
// via Handler, stop with Drain (graceful) and/or Close.
type Server struct {
	opts  Options
	cache *Cache
	sched *scheduler
	mux   *http.ServeMux
	wg    sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	byKey  map[string]*Job // singleflight index: live job per result key
	nextID int

	submitted, accepted, rejected, deduped   atomic.Int64
	simulations, resumes, preemptions        atomic.Int64
	completed, canceled, failed, cacheMisses atomic.Int64
	cacheHits                                atomic.Int64
}

// New builds a Server and starts its worker fleet.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	if opts.MaxJobRounds <= 0 {
		opts.MaxJobRounds = 100000
	}
	if opts.MaxTiles <= 0 {
		opts.MaxTiles = 1 << 16
	}
	cache, err := OpenCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		cache: cache,
		sched: newScheduler(opts.Workers, opts.QueueCap),
		jobs:  map[string]*Job{},
		byKey: map[string]*Job{},
	}
	s.mux = http.NewServeMux()
	s.routes()
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the cumulative counters.
func (s *Server) Stats() Stats {
	running, queued, maxRunning, draining := s.sched.snapshot()
	var corrupt int64
	if s.cache != nil {
		corrupt = s.cache.corrupt.Load()
	}
	return Stats{
		Submitted:    s.submitted.Load(),
		Accepted:     s.accepted.Load(),
		Rejected:     s.rejected.Load(),
		Deduped:      s.deduped.Load(),
		CacheHits:    s.cacheHits.Load(),
		CacheMisses:  s.cacheMisses.Load(),
		CacheCorrupt: corrupt,
		Simulations:  s.simulations.Load(),
		Resumes:      s.resumes.Load(),
		Preemptions:  s.preemptions.Load(),
		Completed:    s.completed.Load(),
		Canceled:     s.canceled.Load(),
		Failed:       s.failed.Load(),
		Running:      running,
		Queued:       queued,
		MaxRunning:   maxRunning,
		Workers:      s.opts.Workers,
		Draining:     draining,
	}
}

// Drain gracefully shuts the server down: new submissions are rejected
// with ErrDraining, every already-accepted job (queued, running, or
// preempted) runs to a terminal state, and then the workers stop. It
// returns nil once the fleet is idle, or ctx's error if the deadline
// expires first — accepted jobs are never abandoned by a successful
// drain.
func (s *Server) Drain(ctx context.Context) error {
	s.sched.drain()
	if err := s.sched.awaitIdle(ctx); err != nil {
		return err
	}
	s.sched.close()
	s.wg.Wait()
	return nil
}

// Close stops the server immediately: pending jobs are canceled (a
// parked engine goes with its job) and the workers exit. Safe after
// Drain; tests defer it.
func (s *Server) Close() {
	s.mu.Lock()
	for _, j := range s.jobs {
		j.requestCancel()
	}
	s.mu.Unlock()
	s.sched.close()
	s.wg.Wait()
}

// worker is one fleet goroutine: claim the next job, run it until a
// terminal state or a yield, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, parked, canceled := s.sched.next()
		if j == nil {
			return
		}
		if canceled {
			// Canceled while waiting: finalize without running.
			s.finishCanceled(j)
			continue
		}
		if !s.runJob(j, parked) {
			s.sched.release(j)
		}
	}
}

// finishCanceled moves j to StateCanceled and unregisters its
// singleflight entry.
func (s *Server) finishCanceled(j *Job) {
	st := j.currentStatus()
	st.State = StateCanceled
	j.finish(st, false)
	s.canceled.Add(1)
	s.unindex(j)
	s.sched.release(j)
}

// unindex removes j from the singleflight index if it is still the
// key's live job.
func (s *Server) unindex(j *Job) {
	s.mu.Lock()
	if s.byKey[j.key] == j {
		delete(s.byKey, j.key)
	}
	s.mu.Unlock()
}

// runJob runs the job's sim.Scenario, or continues its parked trial, on
// the calling worker until it completes, is canceled, or yields to
// preemption. It reports whether j yielded, in which case requeuing it
// has already returned its worker slot.
func (s *Server) runJob(j *Job, parked *sim.Trial) (yielded bool) {
	var str *metrics.Streamer
	h := sim.Hooks{
		Record: true,
		Parked: parked,
		Start: func(t *sim.Trial) {
			str = metrics.NewStreamer(t.Rec)
			if parked != nil {
				s.resumes.Add(1)
				return
			}
			s.simulations.Add(1)
			j.appendLine(str.RoundLine(0)) // round 0: the pre-run injection
		},
		Barrier: func(*core.Network) sim.BarrierOp {
			switch cancel, yield := j.ctl(); {
			case cancel:
				return sim.OpCancel
			case yield:
				return sim.OpYield
			}
			return sim.OpContinue
		},
		OnRound: func(t *sim.Trial) error {
			j.appendLine(str.RoundLine(t.Net.Round()))
			if h := s.opts.roundHook; h != nil {
				h(j.ID, t.Net.Round())
			}
			return nil
		},
	}
	sc := j.Req.Scenario()
	t, err := sc.Run(h)
	if err != nil {
		s.fail(j, apiErrorf(ErrInternal, "run: %v", err))
		return false
	}

	switch t.Status {
	case sim.LoopYielded:
		j.markPreempted(t)
		s.preemptions.Add(1)
		if err := s.sched.enqueue(j, true); err != nil {
			// Only possible after close; the job is lost with the server.
			s.fail(j, err)
		}
		return true
	case sim.LoopCanceled:
		s.finishCanceled(j)
	default: // LoopDone, LoopBudget, LoopQuiescent: a terminal run outcome
		c := t.Net.Counters()
		status := Status{
			ID: j.ID, State: StateDone, Priority: j.Req.Priority,
			Rounds: t.Net.Round(), DeliveredRound: t.Delivered,
			Transmissions: c.Energy.Transmissions,
			EnergyJ:       c.Energy.EnergyJ(sc.Tech),
			Preempts:      j.currentStatus().Preempts,
		}
		// Once the entry is written it is the result's only copy. A failed
		// cache write is not a failed job: the result is then served from
		// memory, so the error is deliberately dropped.
		lines, _, _ := j.snapshot(0)
		onDisk := s.cache != nil && s.cache.put(j.key, j.canon, status, lines...) == nil
		j.finish(status, onDisk)
		s.completed.Add(1)
		s.unindex(j)
	}
	return false
}

// fail moves j into StateFailed with err.
func (s *Server) fail(j *Job, err *APIError) {
	st := j.currentStatus()
	st.State = StateFailed
	st.Error = err
	j.finish(st, false)
	s.failed.Add(1)
	s.unindex(j)
}

// submit admits one parsed, validated request and returns the job that
// serves it (which may be a pre-existing in-flight job — singleflight —
// or a cache-born completed one) plus how it was satisfied.
func (s *Server) submit(req JobRequest) (j *Job, how string, err *APIError) {
	key := req.Key()
	canon := req.canonical()

	s.mu.Lock()
	if live, ok := s.byKey[key]; ok {
		s.mu.Unlock()
		s.deduped.Add(1)
		return live, "deduped", nil
	}
	s.mu.Unlock()

	// The payload is not kept: the job's result reads go to the entry.
	buf := entryBuffers.Get().(*[]byte)
	var status Status
	_, ok := s.cache.read(key, canon, buf, &status)
	entryBuffers.Put(buf)
	if ok {
		s.cacheHits.Add(1)
		j := s.register(req, key, canon)
		status.ID = j.ID
		status.CacheHit = true
		status.Priority = req.Priority
		j.mu.Lock()
		j.cacheHit = true
		j.mu.Unlock()
		j.finish(status, true)
		s.completed.Add(1)
		s.unindex(j)
		return j, "cache", nil
	}
	s.cacheMisses.Add(1)

	j = s.register(req, key, canon)
	s.mu.Lock()
	s.byKey[key] = j
	s.mu.Unlock()
	if err := s.sched.enqueue(j, false); err != nil {
		s.unindex(j)
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, "", err
	}
	s.accepted.Add(1)
	return j, "accepted", nil
}

// register allocates a job ID and stores the job.
func (s *Server) register(req JobRequest, key string, canon []byte) *Job {
	s.mu.Lock()
	s.nextID++
	j := newJob(fmt.Sprintf("j-%06d", s.nextID), req, key, canon)
	s.jobs[j.ID] = j
	s.mu.Unlock()
	return j
}

// routes wires the HTTP surface.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.jobRoute(s.handleStatus))
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.jobRoute(s.handleStream))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.jobRoute(s.handleResult))
	s.mux.HandleFunc("POST /v1/jobs/{id}/preempt", s.jobRoute(s.handlePreempt))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.jobRoute(s.handleCancel))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// jobRoute resolves the {id} of a job route and hands the job to h; an
// unknown ID is answered with not_found.
func (s *Server) jobRoute(h func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		j, ok := s.jobs[id]
		s.mu.Unlock()
		if !ok {
			writeError(w, apiErrorf(ErrNotFound, "no job %q", id))
			return
		}
		h(w, r, j)
	}
}

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes err as the structured {"error": {...}} body.
func writeError(w http.ResponseWriter, err *APIError) {
	writeJSON(w, httpStatus(err.Code), struct {
		Error *APIError `json:"error"`
	}{err})
}

// SubmitResponse is the body of a successful POST /v1/jobs.
type SubmitResponse struct {
	// ID is the job serving this submission (an existing job when the
	// submission was deduplicated).
	ID string `json:"id"`
	// State is the job's state at admission (queued, or done for a
	// cache hit).
	State State `json:"state"`
	// Deduped reports singleflight folding into an in-flight identical
	// job.
	Deduped bool `json:"deduped,omitempty"`
	// CacheHit reports the result was served from the on-disk cache.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// handleSubmit is POST /v1/jobs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, apiErrorf(ErrBadJSON, "read body: %v", err))
		return
	}
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, apiErrorf(ErrBadJSON, "decode job request: %v", err))
		return
	}
	req.normalize()
	if aerr := req.validate(s.opts.MaxTiles, s.opts.MaxJobRounds); aerr != nil {
		writeError(w, aerr)
		return
	}
	s.submitted.Add(1)
	j, how, aerr := s.submit(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	st := j.currentStatus()
	code := http.StatusAccepted
	if st.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{
		ID: j.ID, State: st.State,
		Deduped: how == "deduped", CacheHit: how == "cache",
	})
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, j *Job) {
	writeJSON(w, http.StatusOK, j.currentStatus())
}

// The SSE framing of GET /v1/jobs/{id}/stream, written by handleStream
// and parsed by Client.Stream: each event is an "event: " line naming
// it, one "data: " line and a blank line. Between events the server may
// write a comment line (sseKeepalive), which clients skip.
const (
	sseEvent     = "event: "
	sseData      = "data: "
	sseKeepalive = ": keepalive\n\n"
	eventRound   = "round" // data: one round's JSONL record, without its newline
	eventDone    = "done"  // data: the terminal Status; the stream ends
	eventError   = "error" // data: an APIError; the stream ends without done
)

// A stream gives each batch of writes and its flush streamWriteTimeout
// to reach the client, and while its job has nothing new it writes a
// keepalive comment every streamHeartbeat: a client that stops reading
// then frees its handler within the two, even while the job is queued
// or parked.
const (
	streamWriteTimeout = 30 * time.Second
	streamHeartbeat    = 15 * time.Second
)

// writeEvent writes one server-sent event.
func writeEvent(w io.Writer, name string, data []byte) error {
	_, err := fmt.Fprintf(w, "%s%s\n%s%s\n\n", sseEvent, name, sseData, data)
	return err
}

// handleStream is GET /v1/jobs/{id}/stream: the job's per-round metric
// series as server-sent events. Each executed round is one
// "event: round" whose data line is exactly the round's JSONL record —
// concatenating the data payloads reproduces GET /v1/jobs/{id}/result
// byte for byte. A terminal "event: done" carries the final Status and
// closes the stream. For finished jobs (including cache hits) the whole
// series replays immediately. Once a job's result has moved to its cache
// entry, the rounds not yet sent are read from there; if the entry no
// longer holds them, an "event: error" carrying the internal APIError
// ends the stream instead. A failed write or flush ends the handler, so
// a vanished or stalled client does not hold it until the job ends.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request, j *Job) {
	s.stream(w, r, j, streamHeartbeat)
}

// stream is handleStream with its heartbeat interval.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, j *Job, heartbeat time.Duration) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()

	sent := 0
	for {
		lines, state, updated := j.snapshot(sent)
		rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		for _, line := range lines {
			// line carries its trailing newline; SSE data is the line body.
			if writeEvent(w, eventRound, bytes.TrimSuffix(line, []byte("\n"))) != nil {
				return
			}
		}
		sent += len(lines)
		if state.Terminal() {
			final := j.currentStatus()
			// A done series has Rounds+1 lines (line 0 is round 0), all in
			// memory unless the job dropped them for its cache entry: then
			// the ones not sent yet are read from there.
			if state == StateDone && sent <= final.Rounds {
				buf := entryBuffers.Get().(*[]byte)
				defer entryBuffers.Put(buf)
				res, aerr := s.readBack(j, buf)
				if aerr != nil {
					ev, _ := json.Marshal(aerr)
					if writeEvent(w, eventError, ev) == nil {
						rc.Flush()
					}
					return
				}
				for n := 0; len(res) > 0; n++ {
					var line []byte
					line, res, _ = bytes.Cut(res, []byte("\n"))
					if n >= sent && writeEvent(w, eventRound, line) != nil {
						return
					}
				}
			}
			st, _ := json.Marshal(final)
			if writeEvent(w, eventDone, st) == nil {
				rc.Flush()
			}
			return
		}
		if len(lines) > 0 && rc.Flush() != nil {
			return
		}
		select {
		case <-updated:
		case <-tick.C:
			rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			if _, err := io.WriteString(w, sseKeepalive); err != nil || rc.Flush() != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleResult is GET /v1/jobs/{id}/result: the full JSONL series of a
// finished job — byte-identical to the concatenated stream, and to the
// cached artifact identical future submissions are served from.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, j *Job) {
	lines, state, _ := j.snapshot(0)
	if state != StateDone {
		writeError(w, apiErrorf(ErrConflict, "job %s is %s, result requires done", j.ID, state))
		return
	}
	res := bytes.Join(lines, nil)
	if len(lines) == 0 { // a done job without line 0 holds its result on disk
		buf := entryBuffers.Get().(*[]byte)
		defer entryBuffers.Put(buf)
		var aerr *APIError
		if res, aerr = s.readBack(j, buf); aerr != nil {
			writeError(w, aerr)
			return
		}
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.Write(res)
}

// readBack reads a done job's result from its cache entry into *buf,
// which the result aliases. The entry must still hold the job's own request: an
// entry that is gone, does not decode, or was overwritten by a colliding
// request is an internal error, never other bytes.
func (s *Server) readBack(j *Job, buf *[]byte) ([]byte, *APIError) {
	if res, ok := s.cache.read(j.key, j.canon, buf, nil); ok {
		return res, nil
	}
	return nil, apiErrorf(ErrInternal, "job %s: result no longer on disk", j.ID)
}

// handleCancel is DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, j *Job) {
	if st := j.currentStatus(); st.State.Terminal() {
		writeError(w, apiErrorf(ErrConflict, "job %s already %s", j.ID, st.State))
		return
	}
	j.requestCancel()
	s.sched.cond.Broadcast() // waiting workers re-examine queues
	writeJSON(w, http.StatusOK, j.currentStatus())
}

// handlePreempt is POST /v1/jobs/{id}/preempt: ask a running job to
// yield at its next round barrier (park + requeue). The scheduler
// preempts batch jobs automatically when interactive work waits; the
// endpoint exposes the same lever to operators and tests.
func (s *Server) handlePreempt(w http.ResponseWriter, r *http.Request, j *Job) {
	if !j.requestPreempt() {
		writeError(w, apiErrorf(ErrConflict, "job %s is not preemptible right now", j.ID))
		return
	}
	writeJSON(w, http.StatusOK, j.currentStatus())
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz is GET /healthz: 200 "ok" while accepting, 503
// "draining" afterwards (load balancers drop a draining instance).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	_, _, _, draining := s.sched.snapshot()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok")
}
