// Command nocsimd serves stochastic-communication simulations over
// HTTP: a long-running daemon accepting job configs, running them on a
// bounded worker fleet with admission control, streaming per-round
// metric series live, preempting long batch jobs at round barriers
// (parked in memory, continued bit-identically) when interactive
// traffic waits, and caching results on disk so identical submissions
// are served without re-simulating. The API and its invariants are
// documented in docs/SERVICE.md.
//
// Usage:
//
//	nocsimd [-addr HOST:PORT] [-workers N] [-queue N]
//	        [-cache-dir DIR] [-max-job-rounds N] [-max-tiles N]
//	nocsimd -loadtest [-load-duration DUR] [-load-clients N]
//	        [-load-batch FRAC] [-load-seeds N] [-load-report FILE]
//
// Plain mode listens on -addr until SIGINT/SIGTERM, then drains
// gracefully: new submissions are rejected with 503 while every
// already-accepted job runs to completion.
//
// -workers bounds the simulation fleet (0 = GOMAXPROCS); -queue is the
// admission bound — submissions past it get a structured 429. -cache-dir
// enables the on-disk result cache (off when empty); it is the only
// place the daemon writes to. -max-job-rounds and -max-tiles cap what a
// single job may ask for. -ckpt-dir is accepted and ignored: a preempted
// job keeps its engine in memory, and the benchmark harness still passes
// the flag.
//
// -loadtest switches to self-test mode: the daemon starts in-process,
// drives itself with mixed interactive+batch traffic for -load-duration
// using -load-clients concurrent clients (-load-batch is the batch
// fraction, -load-seeds the per-client seed variety exercising the
// cache and singleflight), drains, and audits the service invariants —
// bounded fleet, admission control under saturation, zero accepted jobs
// lost. The report prints to stdout, is also written as JSON to
// -load-report when set, and any violation makes the exit status 1 so
// the mode can gate CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

var (
	addr         = flag.String("addr", "localhost:8070", "HTTP listen address")
	workers      = flag.Int("workers", 0, "simulation worker fleet bound (0 = GOMAXPROCS)")
	queue        = flag.Int("queue", 64, "admission bound: max jobs waiting for a worker")
	cacheDir     = flag.String("cache-dir", "", "on-disk result cache directory (empty = caching off)")
	_            = flag.String("ckpt-dir", "", "ignored: preempted jobs keep their engine in memory")
	maxJobRounds = flag.Int("max-job-rounds", 100000, "cap on a single job's round budget")
	maxTiles     = flag.Int("max-tiles", 1<<16, "cap on a single job's fabric size in tiles")
	loadtest     = flag.Bool("loadtest", false, "run the self-load-test instead of serving (exit 1 on invariant violations)")
	loadDuration = flag.Duration("load-duration", 2*time.Second, "with -loadtest: traffic phase length")
	loadClients  = flag.Int("load-clients", 4, "with -loadtest: concurrent submitting clients")
	loadBatch    = flag.Float64("load-batch", 0.25, "with -loadtest: fraction of batch-priority submissions")
	loadSeeds    = flag.Int("load-seeds", 16, "with -loadtest: distinct seeds per client (repeats exercise the cache)")
	loadReport   = flag.String("load-report", "", "with -loadtest: also write the report as JSON to this file")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocsimd: ")
	flag.Parse()

	srv, err := service.New(options())
	if err != nil {
		log.Fatal(err)
	}

	if *loadtest {
		os.Exit(runLoadtest(srv))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := newHTTPServer(srv)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("serving on http://%s (workers=%d, queue=%d, cache=%s)",
		ln.Addr(), srv.Stats().Workers, *queue, cacheOrOff(*cacheDir))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("draining: rejecting new jobs, finishing accepted ones")
	shutdown(srv, httpSrv, drainTimeout, shutdownGrace)
	log.Print("drained; bye")
}

// options maps the flags onto the server's options.
func options() service.Options {
	return service.Options{
		Workers:      *workers,
		QueueCap:     *queue,
		CacheDir:     *cacheDir,
		MaxJobRounds: *maxJobRounds,
		MaxTiles:     *maxTiles,
	}
}

// The shutdown sequence's bounds: accepted jobs get drainTimeout to
// finish, and open connections shutdownGrace after that.
const (
	drainTimeout  = time.Minute
	shutdownGrace = 5 * time.Second
)

// shutdown stops the daemon within drain + grace: it drains accepted jobs
// until the drain deadline, closes srv (canceling the jobs still queued or
// running), lets open connections finish for grace, and then closes the
// ones left. A stream of a job that never ends — one still queued when srv
// closed — holds its connection until that last step: http.Server.Shutdown
// does not cancel request contexts.
func shutdown(srv *service.Server, httpSrv *http.Server, drain, grace time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	srv.Close()
	ctx, cancel = context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	httpSrv.Close()
}

// newHTTPServer fronts srv with connection limits. It sets no
// WriteTimeout: an SSE stream stays open as long as its job runs, and
// the stream handler bounds each of its writes itself.
func newHTTPServer(srv *service.Server) *http.Server {
	return &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// cacheOrOff renders the cache flag for the startup banner.
func cacheOrOff(dir string) string {
	if dir == "" {
		return "off"
	}
	return dir
}

// runLoadtest is the -loadtest mode: serve in-process on a loopback
// port, hammer it, audit, report. Returns the process exit code.
func runLoadtest(srv *service.Server) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Print(err)
		return 1
	}
	httpSrv := newHTTPServer(srv)
	go httpSrv.Serve(ln)
	defer shutdown(srv, httpSrv, drainTimeout, shutdownGrace)

	rep, err := service.RunLoad(srv, "http://"+ln.Addr().String(), service.LoadConfig{
		Duration:      *loadDuration,
		Clients:       *loadClients,
		BatchFraction: *loadBatch,
		SeedSpread:    *loadSeeds,
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Print(rep)
	if *loadReport != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*loadReport, append(raw, '\n'), 0o644)
		}
		if err != nil {
			log.Printf("report: %v", err)
			return 1
		}
		log.Printf("report written to %s", *loadReport)
	}
	if v := rep.Violations(); len(v) > 0 {
		log.Printf("FAIL: %d invariant violations", len(v))
		return 1
	}
	return 0
}
