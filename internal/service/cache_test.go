package service

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// Cache-correctness tests: byte-identical replay from disk, the
// simulation-invocation counter staying flat on hits, singleflight
// dedup of concurrent identical submissions, the key-collision
// guard, and quarantine of entry files that do not decode.

// parentEntry is an entry file in the format the cache wrote before
// entries became snapshot containers: magic "NSR1", three sections each
// prefixed with a u32 little-endian length (canon "canon", status
// {"state":"done"}, payload "payload\n"), then a CRC-32. That format
// served it for canon "canon"; now it must miss and be replaced.
var parentEntry, _ = hex.DecodeString("4e535231" +
	"05000000" + "63616e6f6e" +
	"10000000" + "7b227374617465223a22646f6e65227d" +
	"08000000" + "7061796c6f61640a" +
	"b75af8cd")

// containerEntry is an entry file as the cache has written it since
// entries became snapshot containers: key "k", canon "canon", payload
// "round 0\nround 1\n" and status containerStatus. The on-disk bytes do
// not change with the codec's implementation.
var containerEntry, _ = hex.DecodeString("534e4f43000104a4010563616e6f6e8b01" +
	"7b226964223a226a2d303030303031222c227374617465223a22646f6e65222c2270" +
	"72696f72697479223a22222c22726f756e6473223a312c2264656c6976657265645f" +
	"726f756e64223a312c227472616e736d697373696f6e73223a302c22656e65726779" +
	"5f6a223a302c2263616368655f686974223a66616c73652c22707265656d70747322" +
	"3a307d10726f756e6420300a726f756e6420310a36732977")

var containerStatus = Status{ID: "j-000001", State: StateDone, Rounds: 1, DeliveredRound: 1}

// checkpointFile is a valid checkpoint container (a fresh engine's
// sim.WriteCheckpoint): a snapshot file without a SecResult section.
func checkpointFile(t *testing.T) []byte {
	t.Helper()
	req := smallJob(1)
	net, err := core.New(req.Scenario().Config)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteCheckpoint(&buf, sim.CheckpointMeta{Replica: 1, Seed: 1}, net, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheHitByteIdentical proves the caching contract end to end: a
// repeated identical submission is served from disk — the Simulations
// counter does not move — and its result is byte-identical to the
// first run's.
func TestCacheHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	req := smallJob(17)

	first := submit(t, c, req)
	firstDone, want := waitState(t, c, first.ID, StateDone)
	if st := srv.Stats(); st.Simulations != 1 || st.CacheHits != 0 {
		t.Fatalf("after first run: %+v", st)
	}

	// A done state is the client-checked 200 of a job born finished.
	second := submit(t, c, req)
	if !second.CacheHit || second.State != StateDone {
		t.Fatalf("resubmit = %+v, want 200 cache_hit done", second)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit reused the first job's ID")
	}
	if _, got := waitState(t, c, second.ID, StateDone); !bytes.Equal(got, want) {
		t.Fatalf("cached result differs from original:\ngot:\n%s\nwant:\n%s", got, want)
	}
	secondDone, err := c.Status(testCtx(t), second.ID)
	if err != nil || !secondDone.CacheHit {
		t.Fatal("status of cache-born job does not report cache_hit")
	}
	if secondDone.DeliveredRound != firstDone.DeliveredRound ||
		secondDone.Transmissions != firstDone.Transmissions ||
		secondDone.EnergyJ != firstDone.EnergyJ {
		t.Fatalf("cached status %+v differs from original %+v", secondDone, firstDone)
	}
	if st := srv.Stats(); st.Simulations != 1 || st.CacheHits != 1 {
		t.Fatalf("after the hit: %+v, want Simulations 1 (no re-simulation) and CacheHits 1", st)
	}

	// The cache outlives the server: a fresh instance over the same
	// directory serves the result without ever simulating.
	srv2, c2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	if sub := submit(t, c2, req); !sub.CacheHit {
		t.Fatalf("fresh server over warm cache: %+v", sub)
	} else if _, got := waitState(t, c2, sub.ID, StateDone); !bytes.Equal(got, want) {
		t.Fatal("fresh server served different bytes from the same cache entry")
	}
	if st := srv2.Stats(); st.Simulations != 0 {
		t.Fatalf("fresh server simulated despite warm cache: %+v", st)
	}
}

// TestCacheKeySeparatesConfigs verifies nearby configs never share an
// entry: tweaking any identity field (seed, p, fault model, payload size)
// changes the key and forces a fresh simulation.
func TestCacheKeySeparatesConfigs(t *testing.T) {
	srv, c := newTestServer(t, Options{Workers: 2, CacheDir: t.TempDir()})
	base := smallJob(23)
	variants := []JobRequest{base, base, base, base, base}
	variants[1].Seed = 24
	variants[2].P = 0.61
	variants[3].Fault.Upset = 0.05
	variants[4].Payload = 64

	results := make([][]byte, len(variants))
	for i, v := range variants {
		sub := submit(t, c, v)
		_, results[i] = waitState(t, c, sub.ID, StateDone)
	}
	if st := srv.Stats(); st.Simulations != int64(len(variants)) || st.CacheHits != 0 {
		t.Fatalf("distinct configs shared cache entries: %+v", st)
	}
	if bytes.Equal(results[0], results[1]) {
		t.Fatal("different seeds produced identical series (suspicious cross-serve)")
	}
}

// TestSingleflightDedup submits the same config many times while the
// first submission is still running: every duplicate folds into the
// in-flight job — same ID, deduped flag — and the simulation runs
// exactly once.
func TestSingleflightDedup(t *testing.T) {
	srv, c, p := newParkedServer(t, Options{Workers: 1, CacheDir: t.TempDir()}, 1)
	req := smallJob(31)

	first := submit(t, c, req)
	<-p.entered // the job is running and parked

	const dups = 8
	ctx := testCtx(t)
	var wg sync.WaitGroup
	ids := make([]string, dups)
	dedup := make([]bool, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sub, err := c.Submit(ctx, req)
			if err != nil {
				t.Errorf("dup %d: %v", i, err)
				return
			}
			ids[i], dedup[i] = sub.ID, sub.Deduped
		}(i)
	}
	wg.Wait()
	p.release()

	for i := 0; i < dups; i++ {
		if ids[i] != first.ID || !dedup[i] {
			t.Fatalf("dup %d got job %s (deduped %v), want the in-flight %s, deduped", i, ids[i], dedup[i], first.ID)
		}
	}
	waitState(t, c, first.ID, StateDone)
	if st := srv.Stats(); st.Simulations != 1 || st.Deduped != dups || st.Accepted != 1 {
		t.Fatalf("%d concurrent identical submissions: %+v, want exactly 1 simulation, %d deduped, 1 accepted", dups+1, st, dups)
	}
}

// TestCorruptEntryResimulated replaces a cache entry with a bit-rotted
// copy, a parent-format entry and a checkpoint container in turn: each is
// quarantined, the job re-simulates, and the result rewrites the entry.
func TestCorruptEntryResimulated(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	req := smallJob(47)

	first := submit(t, c, req)
	_, want := waitState(t, c, first.ID, StateDone)

	entries, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries = %v (err %v), want exactly 1", entries, err)
	}
	for i, damage := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bit-rot", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }},
		{"parent-format entry", func([]byte) []byte { return parentEntry }},
		{"checkpoint container", func([]byte) []byte { return checkpointFile(t) }},
	} {
		raw, err := os.ReadFile(entries[0]) // the entry the last run (re)wrote
		if err != nil {
			t.Fatalf("%s: %v", damage.name, err)
		}
		if err := os.WriteFile(entries[0], damage.mut(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		sub := submit(t, c, req)
		if sub.CacheHit {
			t.Fatalf("%s: served as a cache hit", damage.name)
		}
		if _, got := waitState(t, c, sub.ID, StateDone); !bytes.Equal(got, want) {
			t.Fatalf("%s: re-simulated result differs from the original", damage.name)
		}
		if st := srv.Stats(); st.Simulations != int64(i+2) || srv.cache.corrupt.Load() != int64(i+1) {
			t.Fatalf("%s: Simulations = %d, Corrupt = %d, want %d and %d", damage.name, st.Simulations, srv.cache.corrupt.Load(), i+2, i+1)
		}
	}

	// The re-simulation healed the entry: one more submission hits.
	if sub := submit(t, c, req); !sub.CacheHit {
		t.Fatalf("post-heal submit = %+v, want a cache hit", sub)
	}
	if st := srv.Stats(); st.Simulations != 4 {
		t.Fatalf("healed entry re-simulated again: %+v", st)
	}
}

// TestCacheNeverCrossServesOnDigestCollision exercises the canon guard
// directly: two different requests stored under the same key (a forced
// key collision) must never serve each other's bytes.
func TestCacheNeverCrossServesOnDigestCollision(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := smallJob(1)
	b := smallJob(2)
	const key = "deadbeef-0000000000000001-r80" // same key for both: a collision
	if err := c.Put(key, a.canonical(), []byte("series-A\n"), Status{State: StateDone}); err != nil {
		t.Fatal(err)
	}

	if payload, _, ok := c.Get(key, a.canonical()); !ok || string(payload) != "series-A\n" {
		t.Fatalf("matching canon missed: ok=%v payload=%q", ok, payload)
	}
	if _, _, ok := c.Get(key, b.canonical()); ok {
		t.Fatal("cache served request A's result to request B across a key collision")
	}
	if c.hits.Load() != 1 || c.misses.Load() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.hits.Load(), c.misses.Load())
	}

	// The collided writer overwrites; now B hits and A must miss.
	if err := c.Put(key, b.canonical(), []byte("series-B\n"), Status{State: StateDone}); err != nil {
		t.Fatal(err)
	}
	if payload, _, ok := c.Get(key, b.canonical()); !ok || string(payload) != "series-B\n" {
		t.Fatalf("overwritten entry: ok=%v payload=%q", ok, payload)
	}
	if _, _, ok := c.Get(key, a.canonical()); ok {
		t.Fatal("stale canon served after overwrite")
	}
}

// wantQuarantined writes raw as the entry file of key "k" and checks
// that Get misses, deletes the file and counts it as corrupt.
func wantQuarantined(t *testing.T, c *Cache, name string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(c.path("k"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := c.corrupt.Load()
	if _, _, ok := c.Get("k", []byte("canon")); ok {
		t.Errorf("%s entry served", name)
	}
	if c.corrupt.Load() != corrupt+1 {
		t.Errorf("%s entry not counted corrupt", name)
	}
	if _, err := os.Stat(c.path("k")); !os.IsNotExist(err) {
		t.Errorf("%s entry not quarantined: stat err = %v", name, err)
	}
}

// TestCacheEntryCRC drives damaged entry files through Cache.Get on
// disk: truncation, trailing garbage, bad magic, a flipped bit and an
// empty file all fail closed.
func TestCacheEntryCRC(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("canon"), []byte("payload\n"), Status{State: StateDone}); err != nil {
		t.Fatal(err)
	}
	entry, err := os.ReadFile(c.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	if payload, _, ok := c.Get("k", []byte("canon")); !ok || string(payload) != "payload\n" {
		t.Fatalf("round trip failed: ok=%v payload=%q", ok, payload)
	}
	for name, mut := range map[string]func([]byte) []byte{
		"truncated":        func(b []byte) []byte { return b[:len(b)-3] },
		"trailing garbage": func(b []byte) []byte { return append(b, 0xaa) },
		"bad magic":        func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped bit":      func(b []byte) []byte { b[len(b)/2] ^= 1; return b },
		"empty":            func([]byte) []byte { return nil },
	} {
		wantQuarantined(t, c, name, mut(bytes.Clone(entry)))
	}
}

// TestCorruptEntryQuarantined verifies Get deletes an entry file written
// in another format — a parent-format entry that format would have
// served, or a checkpoint container — so a healthy rewrite replaces it.
func TestCorruptEntryQuarantined(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wantQuarantined(t, c, "parent-format", parentEntry)
	wantQuarantined(t, c, "checkpoint container", checkpointFile(t))
}

// TestCacheEntryBytesUnchanged pins the entry format byte for byte:
// Put, and put with the payload in round-line pieces, both write
// containerEntry, and containerEntry reads back as what it stores.
func TestCacheEntryBytesUnchanged(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	canon := []byte("canon")
	if err := c.Put("whole", canon, []byte("round 0\nround 1\n"), containerStatus); err != nil {
		t.Fatal(err)
	}
	if err := c.put("pieces", canon, containerStatus, []byte("round 0\n"), []byte("round 1\n")); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"whole", "pieces"} {
		if raw, err := os.ReadFile(c.path(key)); err != nil || !bytes.Equal(raw, containerEntry) {
			t.Fatalf("%s: wrote %x (err %v), want %x", key, raw, err, containerEntry)
		}
	}
	if err := os.WriteFile(c.path("k"), containerEntry, 0o644); err != nil {
		t.Fatal(err)
	}
	payload, status, ok := c.Get("k", canon)
	if !ok || string(payload) != "round 0\nround 1\n" || status != containerStatus {
		t.Fatalf("Get = %q, %+v, %v", payload, status, ok)
	}
}

// entry8x8 is a result the size of an 8x8 job's: its canonical request, a
// done status and 18 JSONL round lines of 680 bytes (12 KB).
func entry8x8() (canon, payload []byte, status Status) {
	req := JobRequest{Width: 8, Height: 8, Src: 0, Dst: 63, P: 0.5, TTL: 64, MaxRounds: 100, Seed: 1}
	req.normalize()
	line := append(bytes.Repeat([]byte("x"), 679), '\n')
	return req.canonical(), bytes.Repeat(line, 18), Status{ID: "j-000001", State: StateDone, Rounds: 17, DeliveredRound: 17}
}

func BenchmarkCacheGet(b *testing.B) {
	c, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	canon, payload, status := entry8x8()
	if err := c.Put("k", canon, payload, status); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, _, ok := c.Get("k", canon); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkCachePut(b *testing.B) {
	c, err := OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	canon, payload, status := entry8x8()
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if err := c.Put("k", canon, payload, status); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCacheGetAllocs pins Get's copy-free decode: past the buffer the file
// is read into, a Get allocates well under one more payload's worth of
// bytes, in a bounded number of allocations.
func TestCacheGetAllocs(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	canon, payload, status := entry8x8()
	if err := c.Put("k", canon, payload, status); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(c.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	get := func() {
		if _, _, ok := c.Get("k", canon); !ok {
			t.Fatal("miss")
		}
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, get)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perGet := int64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := fi.Size() + int64(len(payload))/2; perGet > limit {
		t.Errorf("Get allocates %d B for a %d B file with a %d B payload, want <= %d: a payload-sized copy", perGet, fi.Size(), len(payload), limit)
	}
	if allocs > 24 {
		t.Errorf("Get makes %.0f allocations, want <= 24", allocs)
	}
	t.Logf("Get: %d B in %.0f allocations for a %d B file", perGet, allocs, fi.Size())
}

// TestNilCacheIsAlwaysMiss pins the disabled-cache mode.
func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if err := c.Put("k", nil, []byte("x"), Status{}); err != nil {
		t.Fatalf("nil cache Put: %v", err)
	}
	if _, _, ok := c.Get("k", nil); ok {
		t.Fatal("nil cache hit")
	}
}
