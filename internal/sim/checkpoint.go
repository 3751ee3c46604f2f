package sim

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

// Checkpoint files let a Monte Carlo campaign survive interruption: each
// replica periodically serializes its complete state — engine and
// metrics recorder — to its own file, and a later run resumes every
// replica from its file instead of from round 0. Because the engine's
// checkpoint/resume is bit-identical (see internal/core/snapshot.go),
// a resumed campaign produces byte-for-byte the figures and series an
// uninterrupted one would have.
//
// One container file holds three sections: SecSim (replica index and
// derived seed, so a file cannot silently be fed to the wrong replica),
// SecCore (the engine) and, when a recorder is attached, SecMetrics (the
// partial per-round series).

// CheckpointMeta identifies which replica of which campaign a checkpoint
// belongs to.
type CheckpointMeta struct {
	// Replica is the replica index within the campaign.
	Replica int
	// Seed is the replica's derived seed (Seeds(master, n)[Replica]).
	Seed uint64
}

// WriteCheckpoint serializes one replica's state to w. rec may be nil
// for uninstrumented replicas; otherwise it first books the events of an
// Inject since the last round (metrics.Recorder.Sync), which a restored
// network no longer counts.
func WriteCheckpoint(w io.Writer, meta CheckpointMeta, net *core.Network, rec *metrics.Recorder) error {
	enc := snapshot.NewEncoder(w)
	encodeCheckpoint(enc, meta, net, rec)
	return enc.Close()
}

// encodeCheckpoint adds one replica's sections to enc.
func encodeCheckpoint(enc *snapshot.Encoder, meta CheckpointMeta, net *core.Network, rec *metrics.Recorder) {
	sw := enc.Section(snapshot.SecSim)
	sw.Int(meta.Replica)
	sw.U64(meta.Seed)
	net.EncodeState(enc.Section(snapshot.SecCore))
	if rec != nil {
		rec.Sync(net)
		rec.EncodeState(enc.Section(snapshot.SecMetrics))
	}
}

// ReadCheckpoint rebuilds a replica's state from r. cfg must be the
// replica's configuration (same rules as core.Restore: digest-checked,
// hooks re-supplied by the caller). rec, if non-nil, must be a fresh
// recorder built from the same metrics configuration; it is overwritten
// with the checkpointed series. A checkpoint written without a recorder
// cannot satisfy a non-nil rec and is rejected rather than silently
// losing the already-recorded rounds.
func ReadCheckpoint(r io.Reader, cfg core.Config, rec *metrics.Recorder) (*core.Network, CheckpointMeta, error) {
	dec, err := snapshot.NewDecoder(r)
	if err != nil {
		return nil, CheckpointMeta{}, err
	}
	return decodeCheckpoint(dec, cfg, rec)
}

// decodeCheckpoint is ReadCheckpoint over an already validated container.
func decodeCheckpoint(dec *snapshot.Decoder, cfg core.Config, rec *metrics.Recorder) (*core.Network, CheckpointMeta, error) {
	var meta CheckpointMeta
	ms, err := dec.Section(snapshot.SecSim)
	if err != nil {
		return nil, meta, err
	}
	meta.Replica = ms.Int()
	meta.Seed = ms.U64()
	if err := ms.Finish(); err != nil {
		return nil, meta, err
	}
	cs, err := dec.Section(snapshot.SecCore)
	if err != nil {
		return nil, meta, err
	}
	net, err := core.RestoreSection(cs, cfg)
	if err != nil {
		return nil, meta, err
	}
	if rec != nil {
		if !dec.Has(snapshot.SecMetrics) {
			return nil, meta, errors.New("sim: checkpoint has no metrics section but a recorder was supplied")
		}
		rs, err := dec.Section(snapshot.SecMetrics)
		if err != nil {
			return nil, meta, err
		}
		if err := rec.RestoreState(rs); err != nil {
			return nil, meta, err
		}
	}
	return net, meta, nil
}

// Checkpointer writes periodic per-replica checkpoint files into a
// directory. The zero value is inert: Active reports false and MaybeSave
// does nothing, so run loops can call it unconditionally.
type Checkpointer struct {
	// Dir is the checkpoint directory (created on first save).
	Dir string
	// Every is the round interval between saves; <= 0 disables saving.
	Every int
	// Retain is the garbage-collection retention window: Sweep removes
	// checkpoint files whose modification time is older than Retain.
	// <= 0 disables sweeping (files live until Remove). Size it well
	// above the longest expected gap between a replica's saves — a file
	// is refreshed on every save, so only replicas that stopped saving
	// (crashed campaigns, abandoned preempted jobs) age out.
	Retain time.Duration
}

// Active reports whether this checkpointer will ever save.
func (c *Checkpointer) Active() bool { return c != nil && c.Dir != "" && c.Every > 0 }

// CheckpointPath names replica's checkpoint file under dir. All
// checkpoint-aware tools agree on this layout, so a campaign can be
// resumed by pointing -resume-from at a former -checkpoint-dir.
func CheckpointPath(dir string, replica int) string {
	return filepath.Join(dir, fmt.Sprintf("replica-%04d.ckpt", replica))
}

// MaybeSave writes a checkpoint if the checkpointer is active and net
// sits on a multiple of the save interval. Call it after every Step, at
// the round barrier.
func (c *Checkpointer) MaybeSave(meta CheckpointMeta, net *core.Network, rec *metrics.Recorder) error {
	if !c.Active() || net.Round() == 0 || net.Round()%c.Every != 0 {
		return nil
	}
	return c.Save(meta, net, rec)
}

// Save unconditionally writes replica's checkpoint file, atomically
// (SaveCheckpoint), creating Dir if needed.
func (c *Checkpointer) Save(meta CheckpointMeta, net *core.Network, rec *metrics.Recorder) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return fmt.Errorf("sim: checkpoint dir: %w", err)
	}
	return SaveCheckpoint(CheckpointPath(c.Dir, meta.Replica), meta, net, rec)
}

// SaveCheckpoint writes one checkpoint (WriteCheckpoint's format) to path.
// The write is atomic (snapshot.WriteFile), so an interruption mid-save
// leaves the previous checkpoint intact, never a torn file. path's
// directory must exist.
func SaveCheckpoint(path string, meta CheckpointMeta, net *core.Network, rec *metrics.Recorder) error {
	err := snapshot.WriteFile(path, func(enc *snapshot.Encoder) { encodeCheckpoint(enc, meta, net, rec) })
	if err != nil {
		return fmt.Errorf("sim: checkpoint %s: %w", path, err)
	}
	return nil
}

// Remove deletes replica's checkpoint file, if any. Call it when the
// replica completes: a finished run's checkpoint is dead weight, and
// removing it is what lets a resumed-then-completed campaign leave the
// checkpoint directory empty. A missing file is not an error.
func (c *Checkpointer) Remove(replica int) error {
	err := os.Remove(CheckpointPath(c.Dir, replica))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("sim: checkpoint remove: %w", err)
	}
	return nil
}

// Sweep garbage-collects stale checkpoint files: every replica-*.ckpt
// in Dir whose modification time is older than now minus Retain is
// deleted, and the number removed is reported. Saves refresh a file's
// mtime, so live replicas are never swept — only files nothing has
// touched for a full retention window (interrupted campaigns that were
// never resumed, preempted jobs whose owner vanished). A nil sweep —
// no Dir, Retain <= 0, or the directory absent — removes nothing.
func (c *Checkpointer) Sweep(now time.Time) (int, error) {
	if c == nil || c.Dir == "" || c.Retain <= 0 {
		return 0, nil
	}
	entries, err := os.ReadDir(c.Dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("sim: checkpoint sweep: %w", err)
	}
	cutoff := now.Add(-c.Retain)
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "replica-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent remove
		}
		if info.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(filepath.Join(c.Dir, name)); err == nil {
			removed++
		}
	}
	return removed, nil
}

// LoadReplica restores one replica from dir's checkpoint file. A missing
// file is not an error — it reports ok=false and the caller starts the
// replica from round 0 (replicas checkpoint independently, so a campaign
// interrupted mid-save resumes some replicas from files and runs the
// rest fresh). A present-but-unreadable file IS an error: silently
// restarting would discard completed work. The loaded meta is verified
// against the expected identity.
func LoadReplica(dir string, want CheckpointMeta, cfg core.Config, rec *metrics.Recorder) (*core.Network, bool, error) {
	path := CheckpointPath(dir, want.Replica)
	dec, err := snapshot.ReadFile(path, new([]byte))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	var net *core.Network
	var meta CheckpointMeta
	if err == nil {
		net, meta, err = decodeCheckpoint(dec, cfg, rec)
	}
	if err != nil {
		return nil, false, fmt.Errorf("sim: resume %s: %w", path, err)
	}
	if meta != want {
		return nil, false, fmt.Errorf("sim: resume %s: checkpoint is replica %d seed %#x, expected replica %d seed %#x",
			path, meta.Replica, meta.Seed, want.Replica, want.Seed)
	}
	return net, true, nil
}
