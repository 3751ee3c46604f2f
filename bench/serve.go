package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/service"
)

// smallJob is the interactive operation of every serving workload: an
// 8x8 corner-to-corner gossip, p = 0.5, TTL 64, 100-round budget.
func smallJob(seed uint64) *service.JobRequest {
	return &service.JobRequest{Width: 8, Height: 8, Src: 0, Dst: 63, P: 0.5, TTL: 64, MaxRounds: 100, Seed: seed}
}

// bigJob is serve_mixed's batch operation: 64x64 corner to corner,
// about 140 rounds.
func bigJob(seed uint64) *service.JobRequest {
	return &service.JobRequest{Width: 64, Height: 64, Src: 0, Dst: 64*64 - 1, P: 0.5, TTL: 255,
		MaxRounds: 1000, Seed: seed, Priority: service.PriorityBatch}
}

// statsDelta turns two /v1/stats snapshots into the per-layer counts of
// one window.
func statsDelta(before, after service.Stats, batchDone int) map[string]float64 {
	m := map[string]float64{
		"service.simulations": float64(after.Simulations - before.Simulations),
		"service.cache_hits":  float64(after.CacheHits - before.CacheHits),
		"service.deduped":     float64(after.Deduped - before.Deduped),
		"service.preemptions": float64(after.Preemptions - before.Preemptions),
		"service.resumes":     float64(after.Resumes - before.Resumes),
		"service.rejected":    float64(after.Rejected - before.Rejected),
	}
	if sub := after.Submitted - before.Submitted; sub > 0 {
		m["service.hit_ratio"] = m["service.cache_hits"] / float64(sub)
	}
	if batchDone > 0 {
		m["service.preempts_per_batch_job"] = m["service.preemptions"] / float64(batchDone)
	}
	return m
}

// closedLoop runs clients closed-loop clients until deadline: each
// sends its next operation only after the previous one completed.
// op(client, i) performs the client's i-th operation and returns its
// latency in milliseconds. The returned rate sums each client's
// completions over that client's own elapsed time.
func closedLoop(clients int, deadline time.Time, op func(client, i int) (float64, bool)) (rate float64, latMs []float64, done int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			n, last := 0, start
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				ms, ok := op(c, i)
				if ok {
					n++
					last = time.Now()
					lat = append(lat, ms)
				}
			}
			mu.Lock()
			if n > 0 {
				rate += float64(n) / last.Sub(start).Seconds()
			}
			latMs = append(latMs, lat...)
			done += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return rate, latMs, done
}

// served is what the serving workloads share: a spawned daemon and the
// bookkeeping that keeps seeds from repeating across windows.
type served struct {
	e      *env
	d      *daemon
	base   uint64 // seed base; per-client and per-window offsets are added to it
	issued []int  // per closed-loop client: operations issued so far, across windows
	digest string
}

// start derives the seed base from the workload's stream label and
// spawns the daemon.
func (s *served) start(e *env, label uint64, name string) (err error) {
	s.e = e
	s.base = e.stream(label).Uint64() >> 8 // headroom for the offsets
	s.issued = make([]int, e.nproc)
	s.d, err = startDaemon(e, name)
	return err
}

// nextSeed returns closed-loop client c's next never-repeated seed.
func (s *served) nextSeed(c int) uint64 {
	seed := s.base + uint64(c+1)<<40 + uint64(s.issued[c])
	s.issued[c]++
	return seed
}

func (s *served) Probe() map[string]float64 { return preemptProbe(s.d, s.base+1<<50) }
func (s *served) Digest() string            { return s.digest }
func (s *served) Teardown() {
	if s.d != nil {
		s.d.stop()
	}
}

// serveClosed is serve_cold (every seed new) and serve_cached (every
// request repeats one of cachedSeeds seeds populated during set-up):
// nproc closed-loop clients, each operation submit → stream → result.
type serveClosed struct {
	served
	cached bool
	first  map[uint64][]byte // cached: bytes first served per seed
}

const cachedSeeds = 256

// rssAfterJobs is the job count at which a closed-loop window reads the
// daemon's peak RSS. The daemon keeps every finished job, so its memory
// grows with jobs served; reading at the end of a timed window would
// report a faster daemon as a hungrier one.
const rssAfterJobs = 1000

func (w *serveClosed) name() string {
	if w.cached {
		return "serve_cached"
	}
	return "serve_cold"
}

func (w *serveClosed) Setup(e *env) error {
	if err := w.start(e, 6, w.name()); err != nil {
		return err
	}
	// Set-up jobs double as the digest's fixed probe set: four cold jobs,
	// or the whole cached working set.
	probes := 4
	if w.cached {
		probes = cachedSeeds
		w.first = make(map[uint64][]byte, cachedSeeds)
	}
	results := make([][]byte, probes)
	errs := make([]error, e.nproc)
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < probes; k += e.nproc {
				o, err := w.d.runJob(smallJob(w.base + uint64(k)))
				if err != nil {
					errs[c] = err
					return
				}
				results[k] = o.result
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("%s set-up job: %w", w.name(), err)
		}
	}
	parts := make([]any, probes)
	for k, res := range results {
		parts[k] = string(res)
		if w.cached {
			w.first[w.base+uint64(k)] = res
		}
	}
	w.digest = digestOf(parts...)
	return nil
}

func (w *serveClosed) Run(window time.Duration, tr *Tracer) repResult {
	var r repResult
	var mu sync.Mutex
	picks := make([]*rng.Stream, w.e.nproc)
	for c := range picks {
		picks[c] = w.e.stream(100 + uint64(c)).Split(uint64(w.issued[c]))
	}
	before, err := w.d.stats()
	if err != nil {
		r.attempted = 1
		r.fail("stats: %v", err)
		return r
	}
	rate, lat, _ := closedLoop(w.e.nproc, time.Now().Add(window), func(c, _ int) (float64, bool) {
		seed := w.nextSeed(c) // cold: never repeated, past the set-up probes, disjoint per client
		if w.cached {
			seed = w.base + uint64(picks[c].Intn(cachedSeeds))
		}
		start := time.Now()
		o, err := w.d.runJob(smallJob(seed))
		ms := msSince(start)
		o.trace(tr, start)
		switch {
		case err == nil && w.cached && !o.sub.CacheHit:
			err = fmt.Errorf("job %s (seed %d) was not a cache hit", o.id, seed)
		case err == nil && w.cached && !bytes.Equal(o.result, w.first[seed]):
			err = fmt.Errorf("job %s: repeat of seed %d returned other bytes than first served", o.id, seed)
		case err == nil && !w.cached && (o.sub.CacheHit || o.sub.Deduped):
			err = fmt.Errorf("job %s (seed %d) was not simulated", o.id, seed)
		}
		mu.Lock()
		r.attempted++
		if err != nil {
			r.fail("%v", err)
		}
		if r.attempted == rssAfterJobs {
			r.rssMB = w.d.rssMB()
		}
		mu.Unlock()
		return ms, err == nil
	})
	r.rate, r.latMs = rate, lat
	if after, err := w.d.stats(); err == nil {
		r.layer = statsDelta(before, after, 0)
	}
	if r.rssMB == 0 { // a window too short for rssAfterJobs
		r.rssMB = w.d.rssMB()
	}
	return r
}

// arrival is one request of the open-loop interactive stream.
type arrival struct {
	due    time.Duration // offset from the window's start
	seed   uint64
	repeat bool // seed was drawn from an earlier arrival
}

const (
	mixedRate       = 50.0 // interactive arrivals per second
	mixedRepeatProb = 0.5
)

// mixedSchedule generates the Poisson arrival schedule of serve_mixed
// for one window: exponential gaps at mixedRate, and each arrival after
// the first repeats the seed of a uniformly chosen earlier arrival with
// probability mixedRepeatProb, so cache hits and singleflight dedups
// mix with cold jobs. It is a pure function of the stream.
func mixedSchedule(src *rng.Stream, base uint64, window time.Duration) []arrival {
	var out []arrival
	for t := src.Exponential(mixedRate); ; t += src.Exponential(mixedRate) {
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		a := arrival{due: due, seed: base + uint64(len(out))}
		if len(out) > 0 && src.Bool(mixedRepeatProb) {
			a.seed, a.repeat = out[src.Intn(len(out))].seed, true
		}
		out = append(out, a)
	}
}

// serveMixed keeps the fleet saturated with closed-loop batch jobs
// while an open-loop interactive stream arrives on schedule.
type serveMixed struct {
	served
	runs int // windows run so far: each gets fresh interactive seeds
}

func (w *serveMixed) Setup(e *env) error {
	if err := w.start(e, 7, "serve_mixed"); err != nil {
		return err
	}
	var parts []any
	for k, req := range []*service.JobRequest{smallJob(w.base), smallJob(w.base + 1), bigJob(w.base + 2)} {
		o, err := w.d.runJob(req)
		if err != nil {
			return fmt.Errorf("serve_mixed set-up job %d: %w", k, err)
		}
		parts = append(parts, string(o.result))
	}
	w.digest = digestOf(parts...)
	return nil
}

func (w *serveMixed) Run(window time.Duration, tr *Tracer) repResult {
	var r repResult
	var mu sync.Mutex
	w.runs++
	interBase := w.base + uint64(w.runs)<<32
	sched := mixedSchedule(w.e.stream(8).Split(uint64(w.runs)), interBase, window)
	before, err := w.d.stats()
	if err != nil {
		r.attempted = 1
		r.fail("stats: %v", err)
		return r
	}
	record := func(err error) {
		mu.Lock()
		r.attempted++
		if err != nil {
			r.fail("%v", err)
		}
		mu.Unlock()
	}

	// The daemon's VmHWM under this load is set by single checkpoint
	// bursts (39-55 MB from one daemon to the next), so the footprint
	// reported here is the sustained one.
	stopRSS, rss := make(chan struct{}), make(chan float64, 1)
	go w.d.sustainedRSS(stopRSS, rss)

	start := time.Now()
	deadline := start.Add(window)

	// Open loop: arrivals are handed out when due, whatever the system's
	// state, to a pool of 2*nproc connections; latency runs from the due
	// instant, so a stall is charged to every request it delays.
	var (
		first    = map[uint64][]byte{}
		byClass  = map[string][]float64{}
		lateMax  float64
		arrivals = make(chan arrival, len(sched)) // holds the whole schedule: the generator never blocks
		pool     sync.WaitGroup
	)
	for p := 0; p < 2*w.e.nproc; p++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for a := range arrivals {
				due := start.Add(a.due)
				o, err := w.d.runJob(smallJob(a.seed))
				ms := float64(o.t[tResult1].Sub(due)) / 1e6
				late := float64(o.t[tSubmit0].Sub(due)) / 1e6
				o.trace(tr, due)
				class := "cold"
				switch {
				case o.sub.CacheHit:
					class = "hit"
				case o.sub.Deduped:
					class = "dedup"
				}
				mu.Lock()
				if err == nil {
					if prev, ok := first[a.seed]; !ok {
						first[a.seed] = o.result
					} else if !bytes.Equal(prev, o.result) {
						err = fmt.Errorf("job %s: repeat of seed %d returned other bytes than first served", o.id, a.seed)
					}
				}
				if err == nil {
					r.latMs = append(r.latMs, ms)
					byClass[class] = append(byClass[class], ms)
				}
				if late > lateMax {
					lateMax = late
				}
				mu.Unlock()
				record(err)
			}
		}()
	}
	gen := make(chan struct{})
	go func() {
		defer close(gen)
		for _, a := range sched {
			time.Sleep(time.Until(start.Add(a.due)))
			arrivals <- a
		}
		close(arrivals)
	}()

	// Closed loop: nproc batch clients keep the fleet saturated.
	rate, _, batchDone := closedLoop(w.e.nproc, deadline, func(c, _ int) (float64, bool) {
		t0 := time.Now()
		o, err := w.d.runJob(bigJob(w.nextSeed(c)))
		o.trace(tr, t0)
		record(err)
		return msSince(t0), err == nil
	})
	<-gen
	pool.Wait()

	r.rate = rate
	if after, err := w.d.stats(); err == nil {
		r.layer = statsDelta(before, after, batchDone)
	} else {
		r.layer = map[string]float64{}
	}
	for class, lat := range byClass {
		r.layer["service.lat_"+class+"_ms.p50"] = percentile(sortedCopy(lat), 50)
	}
	r.layer["service.gen_late_ms.max"] = lateMax
	close(stopRSS)
	r.rssMB = <-rss
	return r
}

// preemptProbe measures, on an otherwise idle daemon, how long an
// explicit POST .../preempt takes to yield a running 64x64 batch job
// at its next round barrier (checkpoint written, state preempted) and
// how long the resumed job then takes to finish. Three jobs, medians.
func preemptProbe(d *daemon, seed uint64) map[string]float64 {
	var yield, resume []float64
	for k := 0; k < 3; k++ {
		y, r, err := preemptOnce(d, seed+uint64(k))
		if err != nil {
			continue // a job that finished before the preempt landed has nothing to report
		}
		yield, resume = append(yield, y), append(resume, r)
	}
	return map[string]float64{
		"service.preempt_to_yield_ms.p50": median(yield),
		"service.resume_to_done_ms.p50":   median(resume),
	}
}

func preemptOnce(d *daemon, seed uint64) (yieldMs, resumeMs float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body, err := json.Marshal(bigJob(seed))
	if err != nil {
		return 0, 0, err
	}
	raw, code, err := d.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil || code != http.StatusAccepted {
		return 0, 0, fmt.Errorf("submit: status %d: %v", code, err)
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		return 0, 0, err
	}
	// poll repeats GET status until ok accepts it.
	poll := func(ok func(service.Status) bool) (service.Status, error) {
		for {
			var st service.Status
			raw, code, err := d.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil)
			if err != nil || code != http.StatusOK {
				return st, fmt.Errorf("status: %d: %v", code, err)
			}
			if err := json.Unmarshal(raw, &st); err != nil {
				return st, err
			}
			if ok(st) || st.State.Terminal() {
				return st, nil
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	if st, err := poll(func(s service.Status) bool { return s.State == service.StateRunning && s.Rounds >= 5 }); err != nil || st.State.Terminal() {
		return 0, 0, fmt.Errorf("job never seen running: %v", err)
	}
	t0 := time.Now()
	if _, code, err := d.do(ctx, http.MethodPost, "/v1/jobs/"+sub.ID+"/preempt", nil); err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("preempt: status %d: %v", code, err)
	}
	st, err := poll(func(s service.Status) bool { return s.Preempts >= 1 })
	if err != nil || st.Preempts < 1 {
		return 0, 0, fmt.Errorf("job finished before yielding: %v", err)
	}
	t1 := time.Now()
	if st, err = poll(func(service.Status) bool { return false }); err != nil || st.State != service.StateDone {
		return 0, 0, fmt.Errorf("resumed job ended %s: %v", st.State, err)
	}
	return float64(t1.Sub(t0)) / 1e6, msSince(t1), nil
}
