package sim

import "repro/internal/metrics"

// RunSeries executes cfg.Replicas independent replicas that each record
// a metrics.TimeSeries and merges them into per-round cross-replica
// statistics (mean/min/max/95%-CI per round per series). The merge
// inherits Run's determinism contract: replicas land in index order
// before metrics.Merge folds them, so the aggregate — and any JSONL/CSV
// artifact exported from it — is bit-identical whether the batch ran on
// 1 worker or 64.
func RunSeries(cfg Config, body func(replica int, seed uint64) (*metrics.TimeSeries, error)) (*metrics.Aggregate, error) {
	runs, err := Run(cfg, body)
	if err != nil {
		return nil, err
	}
	return metrics.Merge(runs)
}
