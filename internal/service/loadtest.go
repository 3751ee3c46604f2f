package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// The load-test harness drives a Server with mixed interactive+batch
// traffic over its real HTTP surface through a Client, then drains it
// and audits the invariants a multi-tenant daemon must hold under
// saturation:
//
//   - the worker fleet never exceeds its configured bound;
//   - admission control rejects (with 429), it does not queue without
//     bound or fall over;
//   - a graceful drain finishes every accepted job — zero loss.
//
// It is used by `nocsimd -loadtest` (which prints the report as JSON
// and exits non-zero on violations) and by the race-gated
// servicegate CI job via TestLoadMixedTraffic.

// LoadConfig parameterizes a load run. Zero fields take the defaults
// noted on each.
type LoadConfig struct {
	// Duration is the traffic phase length (default 2s).
	Duration time.Duration
	// Clients is the number of concurrent submitting clients (default 4).
	Clients int
	// BatchFraction is the fraction of submissions sent at batch
	// priority, in [0, 1] (default 0.25).
	BatchFraction float64
	// SeedSpread is the number of distinct seeds each client cycles
	// through; repeats exercise the result cache and singleflight
	// (default 16).
	SeedSpread int
	// Request is the job template; Seed and Priority are overwritten per
	// submission. The zero value defaults to an 8x8 mesh corner-to-corner
	// gossip at p=0.5 with a 100-round budget.
	Request JobRequest
	// DrainTimeout bounds the post-traffic graceful drain (default 60s).
	DrainTimeout time.Duration
}

// fill applies the documented defaults.
func (c *LoadConfig) fill() {
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.BatchFraction < 0 {
		c.BatchFraction = 0
	}
	if c.BatchFraction == 0 {
		c.BatchFraction = 0.25
	}
	if c.SeedSpread <= 0 {
		c.SeedSpread = 16
	}
	if c.Request.Width == 0 {
		c.Request = JobRequest{Width: 8, Height: 8, Src: 0, Dst: 63, P: 0.5, TTL: 64, MaxRounds: 100}
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 60 * time.Second
	}
}

// LoadReport is a load run's outcome: client-observed traffic counts,
// the server's own counters, and the audited invariants.
type LoadReport struct {
	// Elapsed is the traffic phase's wall-clock length.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Submitted counts POSTs issued by the load clients.
	Submitted int64 `json:"submitted"`
	// Accepted counts submissions admitted (fresh jobs).
	Accepted int64 `json:"accepted"`
	// Deduped counts submissions folded into in-flight identical jobs.
	Deduped int64 `json:"deduped"`
	// CacheHits counts submissions served from the result cache.
	CacheHits int64 `json:"cache_hits"`
	// Rejected counts 429 admission rejections.
	Rejected int64 `json:"rejected"`
	// TransportErrors counts submissions that failed with any error other
	// than a saturated rejection.
	TransportErrors int64 `json:"transport_errors"`
	// SubmitPerSec is the sustained client-observed submission rate.
	SubmitPerSec float64 `json:"submit_per_sec"`
	// Completed counts jobs the server finished (server counter).
	Completed int64 `json:"completed"`
	// Canceled counts jobs canceled before finishing (server counter).
	Canceled int64 `json:"canceled"`
	// Failed counts jobs that errored server-side (server counter).
	Failed int64 `json:"failed"`
	// Simulations is the server's fresh-engine-run count.
	Simulations int64 `json:"simulations"`
	// Preemptions counts round-barrier yields (server counter).
	Preemptions int64 `json:"preemptions"`
	// Resumes counts checkpoint-resumed continuations (server counter).
	Resumes int64 `json:"resumes"`
	// Workers is the configured fleet bound.
	Workers int `json:"workers"`
	// MaxRunning is the observed concurrency high-water mark.
	MaxRunning int `json:"max_running"`
	// Lost counts accepted jobs that were not in a terminal state after
	// the graceful drain — any non-zero value is a correctness failure.
	Lost int64 `json:"lost"`
}

// Violations returns the invariant breaches the run observed, empty
// when the server behaved. `nocsimd -loadtest` exits non-zero when any
// are present.
func (r *LoadReport) Violations() []string {
	var v []string
	if r.Lost > 0 {
		v = append(v, fmt.Sprintf("%d accepted jobs lost across the drain", r.Lost))
	}
	if r.MaxRunning > r.Workers {
		v = append(v, fmt.Sprintf("fleet ran %d concurrent jobs, bound is %d", r.MaxRunning, r.Workers))
	}
	if r.Accepted == 0 {
		v = append(v, "no job was ever accepted")
	}
	if r.TransportErrors > 0 {
		v = append(v, fmt.Sprintf("%d transport errors", r.TransportErrors))
	}
	if r.Failed > 0 {
		v = append(v, fmt.Sprintf("%d jobs failed server-side", r.Failed))
	}
	return v
}

// String renders the report for the terminal.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load: %d submitted in %v (%.0f/s): %d accepted, %d deduped, %d cache hits, %d rejected\n",
		r.Submitted, r.Elapsed.Round(time.Millisecond), r.SubmitPerSec, r.Accepted, r.Deduped, r.CacheHits, r.Rejected)
	fmt.Fprintf(&b, "fleet: %d/%d workers peak, %d simulations, %d preemptions, %d resumes\n",
		r.MaxRunning, r.Workers, r.Simulations, r.Preemptions, r.Resumes)
	fmt.Fprintf(&b, "drain: %d completed, %d canceled, %d failed, %d lost\n",
		r.Completed, r.Canceled, r.Failed, r.Lost)
	if v := r.Violations(); len(v) > 0 {
		fmt.Fprintf(&b, "VIOLATIONS: %s\n", strings.Join(v, "; "))
	} else {
		b.WriteString("invariants: fleet bounded, admission controlled, zero loss\n")
	}
	return b.String()
}

// RunLoad drives srv (reachable at base, e.g. an httptest URL or the
// daemon's own listen address) with cfg's traffic mix, drains it, and
// audits every accepted job for loss. The server is left drained —
// rejecting new work — when RunLoad returns.
func RunLoad(srv *Server, base string, cfg LoadConfig) (*LoadReport, error) {
	cfg.fill()
	if aerr := func() *APIError { r := cfg.Request; r.normalize(); return r.validate(1<<31-1, 1<<31-1) }(); aerr != nil {
		return nil, fmt.Errorf("service: load template: %w", aerr)
	}

	var (
		rep         LoadReport
		mu          sync.Mutex // guards rep's client-side counters and acceptedIDs
		acceptedIDs []string
	)
	client := NewClient(base, &http.Client{Timeout: 30 * time.Second})
	ctx := context.Background()
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				req := cfg.Request
				req.Seed = uint64(c*cfg.SeedSpread + i%cfg.SeedSpread + 1)
				req.Priority = PriorityInteractive
				// Deterministic class mix: client i's submissions cycle
				// through the batch fraction without shared state.
				if float64(i%100)/100 < cfg.BatchFraction {
					req.Priority = PriorityBatch
				}
				sub, err := client.Submit(ctx, req)
				var aerr *APIError
				mu.Lock()
				rep.Submitted++
				switch {
				case errors.As(err, &aerr) && aerr.Code == ErrSaturated:
					rep.Rejected++
				case err != nil:
					rep.TransportErrors++
				case sub.Deduped:
					rep.Deduped++
				case sub.CacheHit:
					rep.CacheHits++
				default:
					rep.Accepted++
					acceptedIDs = append(acceptedIDs, sub.ID)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	rep.SubmitPerSec = float64(rep.Submitted) / rep.Elapsed.Seconds()

	// Graceful drain: every accepted job must reach a terminal state.
	drainCtx, cancel := context.WithTimeout(ctx, cfg.DrainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return nil, fmt.Errorf("service: load drain: %w", err)
	}
	for _, id := range acceptedIDs {
		if st, err := client.Status(ctx, id); err != nil || !st.State.Terminal() {
			rep.Lost++
		}
	}

	st := srv.Stats()
	rep.Completed, rep.Canceled, rep.Failed = st.Completed, st.Canceled, st.Failed
	rep.Simulations, rep.Preemptions, rep.Resumes = st.Simulations, st.Preemptions, st.Resumes
	rep.Workers, rep.MaxRunning = st.Workers, st.MaxRunning
	return &rep, nil
}
