package sim

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/snapshot"
)

// A checkpoint file holds one replica's complete state — engine and
// metrics recorder — so that it can be resumed bit-identically (see
// internal/core/snapshot.go).
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

// Checkpointer writes per-replica checkpoint files into a directory.
// No tool of the repository writes checkpoint files: a preempted nocsimd
// job keeps its engine in memory (Hooks.Parked). The type, SaveCheckpoint
// and LoadReplica serve the benchmark's checkpoint kernel
// (bench/kernels.go).
type Checkpointer struct {
	// Dir is the checkpoint directory (created on first save).
	Dir string
	// Every is the round interval between saves; Save does not read it.
	Every int
}

// checkpointPath names replica's checkpoint file under dir.
func checkpointPath(dir string, replica int) string {
	return filepath.Join(dir, fmt.Sprintf("replica-%04d.ckpt", replica))
}

// Save unconditionally writes replica's checkpoint file, atomically
// (SaveCheckpoint), creating Dir if needed.
func (c *Checkpointer) Save(meta CheckpointMeta, net *core.Network, rec *metrics.Recorder) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return fmt.Errorf("sim: checkpoint dir: %w", err)
	}
	return SaveCheckpoint(checkpointPath(c.Dir, meta.Replica), meta, net, rec)
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

// LoadReplica restores one replica from dir's checkpoint file. A missing
// file is not an error — it reports ok=false and the caller starts the
// replica from round 0 (replicas checkpoint independently, so a campaign
// interrupted mid-save resumes some replicas from files and runs the
// rest fresh). A present-but-unreadable file IS an error: silently
// restarting would discard completed work. The loaded meta is verified
// against the expected identity.
func LoadReplica(dir string, want CheckpointMeta, cfg core.Config, rec *metrics.Recorder) (*core.Network, bool, error) {
	path := checkpointPath(dir, want.Replica)
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
