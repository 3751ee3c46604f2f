package experiments

import (
	"bytes"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TestBroadcastMetricsCheckpointInvariance pins the campaign-level
// guarantee behind `cmd/figures -metrics -checkpoint-every/-resume-from`:
// the exported aggregate is byte-identical whether the study ran straight
// through, ran while writing checkpoints, or was resumed from those
// checkpoints mid-run. The resume pass restarts every replica from its
// last saved round, so rounds before the checkpoint come from the
// restored recorder and rounds after it from live re-execution — and the
// merged JSONL still cannot differ by a byte.
func TestBroadcastMetricsCheckpointInvariance(t *testing.T) {
	mc := sim.Config{Replicas: 3, Workers: 1, Seed: 2003}
	export := func(agg *metrics.Aggregate) []byte {
		var buf bytes.Buffer
		if err := metrics.WriteJSONL(&buf, agg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	straight, err := BroadcastMetricsCheckpointed(mc, BroadcastCheckpoints{})
	if err != nil {
		t.Fatal(err)
	}
	want := export(straight)

	dir := t.TempDir()
	saving, err := BroadcastMetricsCheckpointed(mc, BroadcastCheckpoints{
		Save: sim.Checkpointer{Dir: dir, Every: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := export(saving); !bytes.Equal(got, want) {
		t.Fatal("writing checkpoints changed the exported series")
	}

	resumed, err := BroadcastMetricsCheckpointed(mc, BroadcastCheckpoints{
		ResumeDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := export(resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed study's exported series differ from the straight run")
	}

	// Resuming an empty directory degrades to a fresh run, not an error.
	fresh, err := BroadcastMetricsCheckpointed(mc, BroadcastCheckpoints{
		ResumeDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := export(fresh); !bytes.Equal(got, want) {
		t.Fatal("resume from an empty directory diverged from the straight run")
	}
}
