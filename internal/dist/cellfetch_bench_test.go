package dist

// BenchmarkCellFetchVsSimulate, fetch arm: download one published 16-node
// cell from the coordinator's store as a FETCH/CELL frame pair on a live
// wire connection, decode it fail-closed, and install the raw entry — the
// path a cold worker takes. The simulate arm, which re-simulates the same
// cell, lives under the same name in internal/experiments (it needs that
// package's internals); the CI bench script runs both and fails the build
// if fetch*10 > simulate.

import (
	"context"
	"testing"

	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/experiments"
)

func BenchmarkCellFetchVsSimulate(b *testing.B) {
	// Publish the cell once, then stand up a coordinator whose own store
	// holds it.
	warmDir, coldDir := b.TempDir(), b.TempDir()
	o := experiments.Options{CacheDir: warmDir}
	cell := experiments.Cell{Protocol: core.BASH, Nodes: 16, BandwidthMBs: 1600, Seed: 42}
	if _, err := experiments.RunCells(o, []experiments.Cell{cell}); err != nil {
		b.Fatalf("publish cell: %v", err)
	}
	key := cell.Key(o)
	coord := NewCoordinator(CoordinatorOptions{CacheDir: warmDir})
	url := serveWire(b, coord)
	tr, err := newTransport(WorkerOptions{Coordinator: url, Name: "bench"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tr.Close)
	cold := cellstore.For(coldDir)

	b.Run("fetch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := tr.Fetch(context.Background(), key)
			if err != nil || !resp.Found {
				b.Fatalf("fetch: found=%v err=%v", resp != nil && resp.Found, err)
			}
			var m core.Metrics
			if err := cellstore.DecodeRaw(resp.Raw, key, &m); err != nil {
				b.Fatalf("decode fetched cell: %v", err)
			}
			if err := cold.PutRaw(key, resp.Raw); err != nil {
				b.Fatalf("install fetched cell: %v", err)
			}
		}
	})
}
