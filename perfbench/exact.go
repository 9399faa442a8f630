package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cellstore"
)

// exactMetrics are the counts that are pure functions of the program and
// the seed: simulated statistics and exported counters. They must repeat
// bit for bit across runs, traced or not; any difference is a determinism
// bug.
var exactMetrics = []string{
	"bash_vs_best",
	"sim.events_per_op",
	"core.pool_builds",
	"network.bytes_per_op", "network.control_bytes_per_op", "network.utilization",
	"coherence.miss_latency_ns", "coherence.retries_per_op", "coherence.nacks_per_op", "coherence.sharing_miss_frac",
	"cache.miss_ratio",
	"adaptive.broadcast_frac",
	"experiments.sims", "experiments.memo_hits", "experiments.fetched",
}

// checkExact compares this run's exact counts with those an earlier run of
// the same binary, workload and seed recorded under dir, then records the
// union. It returns one description per count that differs.
func checkExact(dir, workload string, seed uint64, vals map[string]float64) ([]string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", cellstore.Fingerprint(), workload, seed))
	rec := map[string]float64{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("exact-count record %s: %w", path, err)
		}
	}
	var diffs []string
	for _, k := range exactMetrics {
		v, ok := vals[k]
		if !ok {
			continue
		}
		if old, seen := rec[k]; seen && old != v {
			diffs = append(diffs, fmt.Sprintf("%s = %v, an earlier run of this binary and seed had %v", k, v, old))
		}
		rec[k] = v
	}
	sort.Strings(diffs)
	raw, err := json.Marshal(rec)
	if err != nil {
		return diffs, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return diffs, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return diffs, err
	}
	return diffs, os.Rename(tmp, path)
}
