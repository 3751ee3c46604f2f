package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/snapshot"
)

// The on-disk result cache. Every completed simulation is stored under
// its content-addressed key (JobRequest.Key: seed, round budget and a
// hash of the canonical request), so a repeated identical submission is
// served from disk instead of re-simulated — the amortization a
// verification workload issuing many identical queries against one
// fabric lives on.
//
// An entry is one snapshot container per key whose snapshot.SecResult
// section holds the canonical request JSON, the terminal status JSON and
// the JSONL payload. Get compares the stored canon byte for byte against
// the requester's, so a key collision can only cause a miss (and a
// re-simulation), never a cross-served result. A file that does not
// decode as such a container — torn, bit-rotted (the container's CRC
// covers it all), or in another format — is deleted and treated as a
// miss: corrupt bytes are never served.
//
// An entry is also the only copy of its done jobs' results: a job whose
// entry was written, or that was born from one, holds no result bytes,
// and the server reads them back through the same checks when they are
// asked for.

// Cache is the on-disk content-addressed result store. A nil *Cache is
// an always-miss cache: every method is nil-receiver safe, so the
// server runs identically (minus the caching) with caching disabled.
type Cache struct {
	dir string

	// corrupt counts the entries quarantined because they did not
	// decode (Stats.CacheCorrupt).
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

// Get looks key up. canon is the requester's canonical request JSON; an
// entry whose stored canon differs — a key collision — is a miss,
// never a cross-serve. An entry file that does not decode is deleted and
// reported as a miss, so at worst the simulation runs again. On a hit it
// returns the result payload (JSONL), which aliases the bytes read from
// the file, and the terminal status stored with it.
func (c *Cache) Get(key string, canon []byte) (payload []byte, status Status, ok bool) {
	payload, ok = c.read(key, canon, new([]byte), &status)
	return payload, status, ok
}

// entryBuffers recycles the buffers the server reads entries into: a
// fresh one per request would make the garbage collector pay for the
// result bytes that done jobs no longer hold.
var entryBuffers = sync.Pool{New: func() any { return new([]byte) }}

// read is Get reading the entry into *buf (grown if it is too small),
// which the payload aliases, so a caller can recycle it; status, unless
// nil, receives the status stored with the payload. The server also uses
// it to read a done job's result back from its entry. It quarantines an
// entry that does not decode.
func (c *Cache) read(key string, canon []byte, buf *[]byte, status *Status) (payload []byte, ok bool) {
	if c == nil {
		return nil, false
	}
	dec, err := snapshot.ReadFile(c.path(key), buf)
	if pe := (*fs.PathError)(nil); errors.As(err, &pe) {
		return nil, false // absent (or unreadable): nothing to quarantine
	}
	var stored, statusJSON []byte
	if err == nil {
		var sec *snapshot.Reader
		if sec, err = dec.Section(snapshot.SecResult); err == nil {
			stored, statusJSON, payload = sec.ReadBytesNoCopy(), sec.ReadBytesNoCopy(), sec.ReadBytesNoCopy()
			err = sec.Finish()
		}
	}
	if err == nil && status != nil {
		err = json.Unmarshal(statusJSON, status)
	}
	if err != nil {
		c.corrupt.Add(1)
		os.Remove(c.path(key)) // quarantine: never serve, re-simulate
		return nil, false
	}
	if !bytes.Equal(stored, canon) {
		// Same key, different request: a key collision. Do not
		// cross-serve; the caller re-simulates (and overwrites the entry).
		return nil, false
	}
	return payload, true
}

// Put stores payload and status under key, atomically
// (snapshot.WriteFile): a crash mid-write leaves either the old entry or
// none, never a torn file — and torn files are caught by the CRC anyway.
func (c *Cache) Put(key string, canon, payload []byte, status Status) error {
	return c.put(key, canon, status, payload)
}

// put is Put with the payload in pieces — a job's round lines — which are
// copied once, straight into the entry's section, sized up front.
func (c *Cache) put(key string, canon []byte, status Status, payload ...[]byte) error {
	if c == nil {
		return nil
	}
	statusJSON, err := json.Marshal(status)
	if err != nil {
		return fmt.Errorf("service: cache status: %w", err)
	}
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	err = snapshot.WriteFile(c.path(key), func(enc *snapshot.Encoder) {
		sec := enc.Section(snapshot.SecResult)
		sec.Grow(3*binary.MaxVarintLen64 + len(canon) + len(statusJSON) + n)
		sec.WriteBytes(canon)
		sec.WriteBytes(statusJSON)
		sec.Uvarint(uint64(n)) // the payload as one byte string, written in pieces
		for _, p := range payload {
			sec.WriteRaw(p)
		}
	})
	if err != nil {
		return fmt.Errorf("service: cache put %s: %w", key, err)
	}
	return nil
}
