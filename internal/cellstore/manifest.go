package cellstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// manifestName is the manifest's file name under the store directory. It is
// JSON (unlike the binary entries) so humans and dashboards can read cache
// effectiveness without the simulator.
const manifestName = "manifest.json"

// ManifestEntry accumulates one experiment's lifetime cache effectiveness.
type ManifestEntry struct {
	Runs    uint64    `json:"runs"`
	Hits    uint64    `json:"hits"`
	Misses  uint64    `json:"misses"`
	Writes  uint64    `json:"writes"`
	LastRun time.Time `json:"last_run"`
}

// HitRate is hits over lookups, 0 when the entry never looked anything up.
func (e ManifestEntry) HitRate() float64 {
	if e.Hits+e.Misses == 0 {
		return 0
	}
	return float64(e.Hits) / float64(e.Hits+e.Misses)
}

// Manifest records per-experiment hit/miss/write counts, persisted alongside
// the store's entries. The CLIs fold each run's counter deltas in and print
// the accumulated table afterwards, so cache effectiveness per experiment
// survives across invocations — the cache-content advertisement idea: the
// store says what it holds and how often that pays, without touching the
// entries themselves. Writers are expected to be single processes (the
// CLIs); concurrent saves are atomic individually, last one wins.
type Manifest struct {
	Experiments map[string]ManifestEntry `json:"experiments"`
}

// LoadManifest reads dir's manifest; a missing, unreadable, or corrupt
// manifest yields an empty one (the store's forgiving-by-design rule).
func LoadManifest(dir string) *Manifest {
	m := &Manifest{Experiments: map[string]ManifestEntry{}}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || json.Unmarshal(data, m) != nil || m.Experiments == nil {
		m.Experiments = map[string]ManifestEntry{}
	}
	return m
}

// Record folds one run's counter deltas into the named experiment's entry.
func (m *Manifest) Record(experiment string, hits, misses, writes uint64) {
	e := m.Experiments[experiment]
	e.Runs++
	e.Hits += hits
	e.Misses += misses
	e.Writes += writes
	e.LastRun = time.Now().UTC()
	m.Experiments[experiment] = e
}

// Save writes the manifest atomically (temp + rename) under dir.
func (m *Manifest) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-manifest-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// String renders the manifest as an aligned table sorted by experiment id.
func (m *Manifest) String() string {
	if len(m.Experiments) == 0 {
		return "cell-store manifest: empty\n"
	}
	ids := make([]string, 0, len(m.Experiments))
	for id := range m.Experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %10s %10s %10s %8s\n", "experiment", "runs", "hits", "misses", "writes", "hit-rate")
	for _, id := range ids {
		e := m.Experiments[id]
		fmt.Fprintf(&b, "%-24s %6d %10d %10d %10d %7.1f%%\n",
			id, e.Runs, e.Hits, e.Misses, e.Writes, 100*e.HitRate())
	}
	return b.String()
}
