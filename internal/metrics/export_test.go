package metrics_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the exporter golden files under testdata/")

// TestMetricsExportGolden pins the exporter bytes two ways: the JSONL
// and CSV renderings of the canonical 8×8 broadcast study must be
// byte-identical across -workers 1/4/16 (worker count must never leak
// into artifacts), and must match the checked-in golden files (so a
// format change is a deliberate, reviewed diff — regenerate with
// `go test ./internal/metrics/ -run TestMetricsExportGolden -update`).
func TestMetricsExportGolden(t *testing.T) {
	mc := sim.Config{Replicas: 6, Seed: 2003}
	var firstJSON, firstCSV []byte
	for _, workers := range []int{1, 4, 16} {
		mc.Workers = workers
		agg, err := experiments.BroadcastMetrics(mc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var j, c bytes.Buffer
		if err := metrics.WriteJSONL(&j, agg); err != nil {
			t.Fatalf("workers=%d: WriteJSONL: %v", workers, err)
		}
		if err := metrics.WriteCSV(&c, agg); err != nil {
			t.Fatalf("workers=%d: WriteCSV: %v", workers, err)
		}
		if firstJSON == nil {
			firstJSON, firstCSV = j.Bytes(), c.Bytes()
			continue
		}
		if !bytes.Equal(j.Bytes(), firstJSON) {
			t.Errorf("JSONL export differs between workers=1 and workers=%d", workers)
		}
		if !bytes.Equal(c.Bytes(), firstCSV) {
			t.Errorf("CSV export differs between workers=1 and workers=%d", workers)
		}
	}
	checkGolden(t, "broadcast_runs6_seed2003.jsonl", firstJSON)
	checkGolden(t, "broadcast_runs6_seed2003.csv", firstCSV)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: export bytes differ from golden file; if the format change is intended, regenerate with -update", name)
	}
}
