package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Read-back tests: a done job whose result is in its cache entry holds no
// result bytes, serves them from the entry, and fails safe — an internal
// error, never other bytes — when the entry no longer holds them.

// job8x8 is an 8x8 corner-to-corner job, the interactive job of the
// serving benchmarks.
func job8x8(seed uint64) JobRequest {
	return JobRequest{Width: 8, Height: 8, Src: 0, Dst: 63, P: 0.5, TTL: 64, MaxRounds: 100, Seed: seed}
}

// retainedLineBytes sums the result bytes held in memory by srv's jobs.
func retainedLineBytes(srv *Server) (n int) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, j := range srv.jobs {
		j.mu.Lock()
		for _, line := range j.lines {
			n += len(line)
		}
		j.mu.Unlock()
	}
	return n
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDoneJobsHoldNoResultBytes pins the server's memory per done job:
// 1000 cold 8x8 jobs on a cached server leave no result bytes in any job
// and grow the live heap by under 2 MB (their results, ~12 MB, are on
// disk), and reading them back moves no cache counter. Without a cache
// directory the same jobs keep their results in memory and serve every
// one.
func TestDoneJobsHoldNoResultBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-job memory pin")
	}
	const jobs = 1000
	run := func(cacheDir string) (srv *Server, growth int64) {
		srv, c := newTestServer(t, Options{Workers: 2, CacheDir: cacheDir})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		var streamed bytes.Buffer
		job := func(seed uint64) {
			sub, err := c.Submit(ctx, job8x8(seed))
			if err != nil || sub.CacheHit || sub.Deduped {
				t.Fatalf("submit seed %d: %+v, %v", seed, sub, err)
			}
			streamed.Reset()
			if st, err := c.Stream(ctx, sub.ID, func(line []byte) { streamed.Write(line) }); err != nil || st.State != StateDone {
				t.Fatalf("job %s ended %s: %v", sub.ID, st.State, err)
			}
			if res, err := c.Result(ctx, sub.ID); err != nil || len(res) == 0 || !bytes.Equal(res, streamed.Bytes()) {
				t.Fatalf("job %s: result (err %v) differs from its stream", sub.ID, err)
			}
		}
		for seed := uint64(0); seed < 16; seed++ { // warm the connections and the fleet
			job(1<<32 + seed)
		}
		before := liveHeap()
		for seed := uint64(0); seed < jobs; seed++ {
			job(seed)
		}
		return srv, int64(liveHeap()) - int64(before)
	}

	srv, growth := run(t.TempDir())
	if n := retainedLineBytes(srv); n != 0 {
		t.Errorf("cached server: done jobs hold %d result bytes, want 0", n)
	}
	if growth > 2<<20 {
		t.Errorf("cached server: live heap grew %d B over %d jobs, want < 2 MB", growth, jobs)
	}
	if st := srv.Stats(); st.CacheHits != 0 || st.CacheMisses != jobs+16 || srv.cache.hits.Load() != 0 || srv.cache.misses.Load() != jobs+16 {
		t.Errorf("result reads moved the cache counters: %+v, Hits %d, Misses %d", st, srv.cache.hits.Load(), srv.cache.misses.Load())
	}
	t.Logf("cached: live heap +%d B over %d jobs", growth, jobs)

	srv, growth = run("")
	if n := retainedLineBytes(srv); n == 0 {
		t.Error("server without a cache holds no result bytes")
	}
	t.Logf("uncached: %d result bytes held, live heap +%d B over %d jobs", retainedLineBytes(srv), growth, jobs)
}

// TestDoneResultFailsSafe takes a done job's entry away from under it in
// three ways, one at a time: deleted, one byte flipped, and overwritten by
// another request's result under the same key (a forced collision; through
// the API, requests do not share keys, see TestPayloadSeparatesResults).
// Each time Result and Stream answer internal and hand out no bytes, a
// flipped entry is quarantined, and resubmitting re-simulates and heals
// the entry, after which the first job reads back again.
func TestDoneResultFailsSafe(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 1, CacheDir: t.TempDir()})
	req, other := smallJob(53), smallJob(54)
	req.normalize()
	other.normalize()
	sub := submit(t, c, req)
	_, want := waitState(t, c, sub.ID, StateDone)
	entry := srv.cache.path(req.Key())

	for _, damage := range []struct {
		name    string
		mut     func() error
		corrupt int64 // entries quarantined by the reads
	}{
		{"deleted", func() error { return os.Remove(entry) }, 0},
		{"byte flipped", func() error {
			raw, err := os.ReadFile(entry)
			if err != nil {
				return err
			}
			raw[len(raw)/2] ^= 1
			return os.WriteFile(entry, raw, 0o644)
		}, 1},
		{"colliding canon", func() error {
			return srv.cache.Put(req.Key(), other.canonical(), []byte("other bytes\n"), Status{State: StateDone})
		}, 0},
	} {
		corrupt, before := srv.cache.corrupt.Load(), srv.Stats()
		if err := damage.mut(); err != nil {
			t.Fatalf("%s: %v", damage.name, err)
		}
		res, err := c.Result(testCtx(t), sub.ID)
		wantAPIError(t, err, ErrInternal)
		var streamed bytes.Buffer
		_, err = c.Stream(testCtx(t), sub.ID, func(line []byte) { streamed.Write(line) })
		wantAPIError(t, err, ErrInternal)
		if len(res) != 0 || streamed.Len() != 0 {
			t.Fatalf("%s: served %q and streamed %q", damage.name, res, streamed.Bytes())
		}
		if got := srv.cache.corrupt.Load() - corrupt; got != damage.corrupt {
			t.Fatalf("%s: %d entries quarantined, want %d", damage.name, got, damage.corrupt)
		}
		if damage.corrupt > 0 {
			if _, err := os.Stat(entry); !os.IsNotExist(err) {
				t.Fatalf("%s: corrupt entry left in place (stat err %v)", damage.name, err)
			}
		}
		if st := srv.Stats(); st.CacheHits != before.CacheHits || st.CacheMisses != before.CacheMisses {
			t.Fatalf("%s: result reads moved the cache counters: %+v -> %+v", damage.name, before, st)
		}

		again := submit(t, c, req)
		if again.CacheHit {
			t.Fatalf("%s: resubmission served from the damaged entry", damage.name)
		}
		if _, got := waitState(t, c, again.ID, StateDone); !bytes.Equal(got, want) {
			t.Fatalf("%s: re-simulated result differs from the original", damage.name)
		}
		if st := srv.Stats(); st.Simulations != before.Simulations+1 {
			t.Fatalf("%s: %d simulations, want %d", damage.name, st.Simulations, before.Simulations+1)
		}
		if res, err := c.Result(testCtx(t), sub.ID); err != nil || !bytes.Equal(res, want) {
			t.Fatalf("%s: healed entry does not serve the first job (err %v)", damage.name, err)
		}
	}
}

// TestPayloadSeparatesResults submits two requests that differ only in
// their payload size, which the engine configuration does not carry. The
// second arrives while the first is parked mid-run and must not fold into
// it. Both run, each finished job then still reads its own result back
// from its own entry, and resubmitting either is a cache hit that serves
// the same bytes.
func TestPayloadSeparatesResults(t *testing.T) {
	srv, c, p := newParkedServer(t, Options{Workers: 2, CacheDir: t.TempDir()}, 1)
	small, large := smallJob(67), smallJob(67)
	large.Payload = 64
	a := submit(t, c, small)
	<-p.entered
	b := submit(t, c, large)
	if b.Deduped || b.ID == a.ID {
		t.Fatalf("a %d-byte payload request folded into the in-flight default-payload job %s: %+v", large.Payload, a.ID, b)
	}
	_, resB := waitState(t, c, b.ID, StateDone)
	p.release()
	_, resA := waitState(t, c, a.ID, StateDone)
	if st := srv.Stats(); st.Simulations != 2 || st.CacheHits != 0 {
		t.Fatalf("two payload sizes: %+v, want 2 simulations and no cache hit", st)
	}
	for _, job := range []struct {
		id   string
		req  JobRequest
		want []byte
	}{{a.ID, small, resA}, {b.ID, large, resB}} {
		if res, err := c.Result(testCtx(t), job.id); err != nil || !bytes.Equal(res, job.want) {
			t.Fatalf("payload %d: job %s no longer reads its result back (err %v)", job.req.Payload, job.id, err)
		}
		again := submit(t, c, job.req)
		if !again.CacheHit {
			t.Fatalf("payload %d: resubmission %+v, want a cache hit", job.req.Payload, again)
		}
		if _, got := waitState(t, c, again.ID, StateDone); !bytes.Equal(got, job.want) {
			t.Fatalf("payload %d: cache hit served other bytes than the run", job.req.Payload)
		}
	}
}

// gatedWriter holds every write of a stream handler until gate closes,
// and closes writing at the first one.
type gatedWriter struct {
	http.ResponseWriter
	once          sync.Once
	writing, gate chan struct{}
}

func (g *gatedWriter) Write(b []byte) (int, error) {
	g.once.Do(func() { close(g.writing) })
	<-g.gate
	return g.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying Flusher.
func (g *gatedWriter) Unwrap() http.ResponseWriter { return g.ResponseWriter }

// TestStreamTailReadFromDisk opens a stream on a job parked in round 1,
// holds the handler once it has taken rounds 0-1 from memory, and lets
// the job finish, which drops its lines for the cache entry. The rest of
// the stream is then read from the entry, and the whole stream must equal
// the result.
func TestStreamTailReadFromDisk(t *testing.T) {
	srv, c, p := newParkedServer(t, Options{Workers: 1, CacheDir: t.TempDir()}, 1)
	sub := submit(t, c, smallJob(61))
	<-p.entered
	srv.mu.Lock()
	j := srv.jobs[sub.ID]
	srv.mu.Unlock()

	gw := &gatedWriter{writing: make(chan struct{}), gate: make(chan struct{})}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gw.ResponseWriter = w
		srv.handleStream(gw, r, j)
	}))
	defer ts.Close()
	var streamed bytes.Buffer
	done := make(chan error, 1)
	ctx := testCtx(t)
	go func() {
		_, err := NewClient(ts.URL, ts.Client()).Stream(ctx, sub.ID, func(line []byte) { streamed.Write(line) })
		done <- err
	}()

	<-gw.writing // the handler holds rounds 0-1 and waits
	p.release()
	final, want := waitState(t, c, sub.ID, StateDone)
	if lines, _, _ := j.snapshot(0); len(lines) != 0 || final.Rounds < 2 {
		t.Fatalf("job done after %d rounds, %d lines still in memory: no tail to read from the entry", final.Rounds, len(lines))
	}
	close(gw.gate)
	if err := <-done; err != nil {
		t.Fatalf("stream: %v", err)
	}
	if !bytes.Equal(streamed.Bytes(), want) {
		t.Fatalf("stream with its tail read from disk differs from the result:\nstream:\n%s\nresult:\n%s", streamed.Bytes(), want)
	}
}
