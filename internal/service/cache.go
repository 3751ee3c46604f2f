package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/snapshot"
)

// The on-disk result cache. Every completed simulation is stored under
// its content-addressed key (JobRequest.Key: config digest + seed +
// round budget), so a repeated identical submission is served from disk
// instead of re-simulated — the amortization a verification workload
// issuing many identical queries against one fabric lives on.
//
// An entry is one snapshot container per key whose snapshot.SecResult
// section holds the canonical request JSON, the terminal status JSON and
// the JSONL payload. Get compares the stored canon byte for byte against
// the requester's, so a digest collision can only cause a miss (and a
// re-simulation), never a cross-served result. A file that does not
// decode as such a container — torn, bit-rotted (the container's CRC
// covers it all), or in another format — is deleted and treated as a
// miss: corrupt bytes are never served.

// Cache is the on-disk content-addressed result store. A nil *Cache is
// an always-miss cache: every method is nil-receiver safe, so the
// server runs identically (minus the caching) with caching disabled.
type Cache struct {
	dir string

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
}

// OpenCache opens (creating if needed) the result cache rooted at dir.
// An empty dir returns a nil cache — caching disabled.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path names key's entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".res")
}

// Hits returns the number of Get calls served from disk.
func (c *Cache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses returns the number of Get calls that found no servable entry
// (absent, corrupt, or canon-mismatched).
func (c *Cache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// Corrupt returns the number of entry files rejected (and deleted)
// because they did not decode as a result container.
func (c *Cache) Corrupt() int64 {
	if c == nil {
		return 0
	}
	return c.corrupt.Load()
}

// Get looks key up. canon is the requester's canonical request JSON; an
// entry whose stored canon differs — a digest collision — is a miss,
// never a cross-serve. An entry file that does not decode is deleted and
// reported as a miss, so at worst the simulation runs again. On a hit it
// returns the result payload (JSONL) and the terminal status stored with
// it.
func (c *Cache) Get(key string, canon []byte) (payload []byte, status Status, ok bool) {
	if c == nil {
		return nil, Status{}, false
	}
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, Status{}, false
	}
	var stored, statusJSON []byte
	dec, err := snapshot.Decode(raw)
	if err == nil {
		var sec *snapshot.Reader
		if sec, err = dec.Section(snapshot.SecResult); err == nil {
			stored, statusJSON, payload = sec.ReadBytes(), sec.ReadBytes(), sec.ReadBytes()
			err = sec.Finish()
		}
	}
	if err == nil {
		err = json.Unmarshal(statusJSON, &status)
	}
	if err != nil {
		c.corrupt.Add(1)
		c.misses.Add(1)
		os.Remove(c.path(key)) // quarantine: never serve, re-simulate
		return nil, Status{}, false
	}
	if !bytes.Equal(stored, canon) {
		// Same key, different request: a config-digest collision. Do not
		// cross-serve; the caller re-simulates (and overwrites the entry).
		c.misses.Add(1)
		return nil, Status{}, false
	}
	c.hits.Add(1)
	return payload, status, true
}

// Put stores payload and status under key, atomically
// (snapshot.WriteFile): a crash mid-write leaves either the old entry or
// none, never a torn file — and torn files are caught by the CRC anyway.
func (c *Cache) Put(key string, canon, payload []byte, status Status) error {
	if c == nil {
		return nil
	}
	statusJSON, err := json.Marshal(status)
	if err != nil {
		return fmt.Errorf("service: cache status: %w", err)
	}
	err = snapshot.WriteFile(c.path(key), func(enc *snapshot.Encoder) {
		sec := enc.Section(snapshot.SecResult)
		sec.WriteBytes(canon)
		sec.WriteBytes(statusJSON)
		sec.WriteBytes(payload)
	})
	if err != nil {
		return fmt.Errorf("service: cache put %s: %w", key, err)
	}
	return nil
}
