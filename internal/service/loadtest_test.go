package service

import (
	"testing"
	"time"
)

// TestLoadMixedTraffic is the race-gated load test: mixed
// interactive+batch traffic against a deliberately small fleet with a
// tiny admission queue, then a graceful drain. It asserts the three
// service invariants — bounded fleet, admission control engaged under
// saturation, zero accepted jobs lost — plus a sustained submission
// floor (the control plane must stay responsive while the fleet is
// saturated).
func TestLoadMixedTraffic(t *testing.T) {
	opts := Options{Workers: 2, QueueCap: 4, CacheDir: t.TempDir()}
	// Slow-motion fleet: ~50µs per round makes each ~100-round job take
	// a few milliseconds, so clients submitting in a tight loop outrun
	// the fleet and admission control must engage.
	opts.roundHook = func(string, int) { time.Sleep(50 * time.Microsecond) }
	srv, c := newTestServer(t, opts)

	rep, err := RunLoad(srv, c.base, LoadConfig{
		Duration:      400 * time.Millisecond,
		Clients:       6,
		BatchFraction: 0.5,
		SeedSpread:    64,
		DrainTimeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("\n%s", rep)

	// Violations covers loss, the fleet bound, acceptance, transport
	// errors and server-side failures.
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	if rep.Rejected == 0 {
		t.Fatal("admission control never engaged despite a saturated 2-worker fleet")
	}
	if rep.SubmitPerSec < 10 {
		t.Fatalf("sustained submission rate %.1f/s below the 10/s floor", rep.SubmitPerSec)
	}
	// Accounting closes: every accepted job is in exactly one terminal
	// bucket. (Cache-born jobs also count as completed, so completed may
	// exceed accepted; it can never undershoot it.)
	if rep.Completed+rep.Canceled+rep.Failed < rep.Accepted {
		t.Fatalf("terminal states (%d+%d+%d) do not cover %d accepted jobs",
			rep.Completed, rep.Canceled, rep.Failed, rep.Accepted)
	}

	// The drain left the server refusing work.
	st := srv.Stats()
	if !st.Draining {
		t.Fatal("server not draining after RunLoad")
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Fatalf("drain returned with %d running / %d queued", st.Running, st.Queued)
	}
	_, err = c.Submit(testCtx(t), smallJob(999))
	wantAPIError(t, err, ErrDraining)
}

// TestLoadDefaultsValidate pins that the zero-value LoadConfig expands
// to a runnable template (guards the CLI's bare `-loadtest`).
func TestLoadDefaultsValidate(t *testing.T) {
	var cfg LoadConfig
	cfg.fill()
	cfg.Request.normalize()
	if aerr := cfg.Request.validate(1<<16, 1<<20); aerr != nil {
		t.Fatalf("default load template invalid: %v", aerr)
	}
	if cfg.Clients <= 0 || cfg.Duration <= 0 || cfg.SeedSpread <= 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}
