package dist_test

// End-to-end distributed-sweep tests: an in-process coordinator with real
// wire-connected workers runs actual experiment sweeps and must reproduce the
// goroutine backend byte for byte — including after a worker dies mid-sweep
// and after an interrupted run resumes from the shared cell store.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cellstore"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// fig1Cells is the quick-scale fig1 grid: 3 protocols x 5 bandwidths x 1 seed.
const fig1Cells = 15

// tsvOf regenerates one experiment and concatenates its artifacts' TSV.
func tsvOf(t *testing.T, id string, o experiments.Options) string {
	t.Helper()
	arts, err := experiments.Run(id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	for _, a := range arts {
		b.WriteString(a.TSV())
	}
	return b.String()
}

// cluster starts a coordinator and n workers sharing one cell store.
func cluster(t *testing.T, cacheDir string, workers int, ttl time.Duration) (*dist.Coordinator, context.CancelFunc) {
	t.Helper()
	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cacheDir})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: ttl})
	srv := httptest.NewServer(coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < workers; i++ {
		go dist.RunWorker(ctx, dist.WorkerOptions{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("worker-%d", i),
			Poll:        10 * time.Millisecond,
		})
	}
	t.Cleanup(func() {
		cancel()
		srv.Close()
	})
	return coord, cancel
}

// TestDistSweepByteIdentical: a sweep dispatched to two worker processes
// over the wire produces a TSV byte-identical to the in-process goroutine
// backend, and every cell was actually executed remotely.
func TestDistSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{})

	cache := t.TempDir()
	coord, _ := cluster(t, cache, 2, 2*time.Second)
	experiments.ResetMemo()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord, CacheDir: cache})
	if got != want {
		t.Errorf("distributed TSV differs from in-process TSV:\n--- in-process ---\n%s\n--- distributed ---\n%s", want, got)
	}
	if st := coord.Stats(); st.Completed != fig1Cells {
		t.Errorf("coordinator completed %d jobs, want %d (every cell dispatched)", st.Completed, fig1Cells)
	}

	// A second distributed run serves everything from memo + store: no new
	// dispatches, byte-identical output.
	before := coord.Stats().Completed
	again := tsvOf(t, "fig1", experiments.Options{Backend: coord, CacheDir: cache})
	if again != want {
		t.Error("warm distributed re-run TSV differs")
	}
	if st := coord.Stats(); st.Completed != before {
		t.Errorf("warm re-run dispatched %d new jobs, want 0", st.Completed-before)
	}
}

// TestDistSweepRecycledMatchesNoRecycle: the hot-path free lists (packet,
// message, line/txn and directory-entry recycling — enabled by default on
// every worker) change nothing: a sweep fanned across two real workers
// running fully recycled simulations reproduces, byte for byte, an
// in-process sweep that allocates every record fresh (Options.NoRecycle).
// Not skipped in -short so the CI race job exercises the recycled path
// under the race detector across real worker goroutines.
func TestDistSweepRecycledMatchesNoRecycle(t *testing.T) {
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{NoRecycle: true, NoReuse: true})

	cache := t.TempDir()
	coord, _ := cluster(t, cache, 2, 2*time.Second)
	experiments.ResetMemo()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord, CacheDir: cache})
	if got != want {
		t.Errorf("recycled two-worker TSV differs from fresh-allocation in-process TSV:\n--- fresh ---\n%s\n--- recycled/dist ---\n%s", want, got)
	}
	if st := coord.Stats(); st.Completed != fig1Cells {
		t.Errorf("coordinator completed %d jobs, want %d", st.Completed, fig1Cells)
	}
}

// TestDistSweepHardenedByteIdentical: the full hardened path — shared-
// secret auth on every wire connection, batched leases with result-reply
// refills, and coordinator co-execution over its in-memory pipe racing two
// real workers — still reproduces the serial in-process TSV byte for byte, and
// batching collapses the protocol's round-trips: at least 4x fewer leases
// than cells.
func TestDistSweepHardenedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{})

	cache := t.TempDir()
	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cache})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{
		LeaseTTL:   2 * time.Second,
		LeaseBatch: 4,
		Secret:     "hardened-sweep",
		CoExecute:  1,
	})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < 2; i++ {
		go dist.RunWorker(ctx, dist.WorkerOptions{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("worker-%d", i),
			Poll:        10 * time.Millisecond,
			Secret:      "hardened-sweep",
		})
	}

	experiments.ResetMemo()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord, CacheDir: cache})
	if got != want {
		t.Errorf("hardened distributed TSV differs from in-process TSV:\n--- in-process ---\n%s\n--- distributed ---\n%s", want, got)
	}
	st := coord.Stats()
	if st.Completed != fig1Cells {
		t.Errorf("coordinator completed %d jobs, want %d", st.Completed, fig1Cells)
	}
	// 3 slots (2 workers + 1 co-execution) each lease once; refills carry
	// the rest of the sweep on result replies.
	if st.Leases == 0 || st.Leases*4 > st.Completed {
		t.Errorf("Leases = %d for %d cells, want >= 4x fewer leases than cells", st.Leases, st.Completed)
	}
	if st.Refills == 0 {
		t.Error("Refills = 0: result replies never refilled a batch")
	}
	// Frames must have flowed (socket byte counters stay 0 under httptest —
	// no Serve).
	if st.FramesIn == 0 || st.FramesOut == 0 {
		t.Errorf("frame counters = %d in / %d out, want both > 0", st.FramesIn, st.FramesOut)
	}
}

// TestDistResumeAfterInterruption: killing a sweep mid-flight loses nothing
// that was already published — the re-run serves published cells from the
// shared store and only simulates the remainder, and the total simulation
// count across both runs equals one full sweep.
func TestDistResumeAfterInterruption(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick-scale sweep across two phases")
	}
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{})

	cache := t.TempDir()
	coord, _ := cluster(t, cache, 2, 2*time.Second)
	st := cellstore.For(cache)

	// Phase 1: cancel the sweep once a handful of cells completed.
	experiments.ResetMemo()
	simBefore := experiments.Simulations()
	ctx, cancel := context.WithCancel(context.Background())
	_, err := experiments.Run("fig1", experiments.Options{
		Backend: coord, CacheDir: cache, Context: ctx,
		Progress: func(done, total int) {
			if done >= 5 {
				cancel()
			}
		},
	})
	cancel()
	if err == nil {
		t.Fatal("interrupted sweep reported success")
	}

	// Drain stragglers: a cell in flight at cancellation still finishes on
	// its worker and is published; wait until no job is executing and the
	// store has gone quiet.
	stableSince := time.Now()
	_, _, lastWrites := st.Counters()
	for time.Since(stableSince) < 300*time.Millisecond {
		time.Sleep(25 * time.Millisecond)
		if _, _, w := st.Counters(); w != lastWrites || runner.InFlight() != 0 {
			lastWrites, stableSince = w, time.Now()
		}
	}
	_, _, published := st.Counters()
	if published < 5 || published >= fig1Cells {
		t.Fatalf("phase 1 published %d cells, want a strict subset of %d with at least 5", published, fig1Cells)
	}
	phase1Sims := experiments.Simulations() - simBefore

	// Phase 2: a fresh run (fresh memo, same store) completes the sweep.
	experiments.ResetMemo()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord, CacheDir: cache})
	if got != want {
		t.Errorf("resumed TSV differs from in-process TSV:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	phase2Sims := experiments.Simulations() - simBefore - phase1Sims
	if phase1Sims+phase2Sims != fig1Cells {
		t.Errorf("simulated %d+%d cells across both phases, want exactly %d (zero re-simulation of published cells)",
			phase1Sims, phase2Sims, fig1Cells)
	}
	if phase2Sims != fig1Cells-uint64(published) {
		t.Errorf("phase 2 simulated %d cells, want %d (the unpublished remainder)", phase2Sims, fig1Cells-uint64(published))
	}
}

// TestDistWorkerKilledMidSweep: one of two workers dies (its context is
// canceled, so it stops heartbeating and never posts again) partway through
// a sweep; lease reassignment lets the survivor finish, and the output is
// still byte-identical.
func TestDistWorkerKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick-scale sweep")
	}
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{})

	cache := t.TempDir()
	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cache})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 300 * time.Millisecond})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	victimCtx, killVictim := context.WithCancel(context.Background())
	survivorCtx, stopSurvivor := context.WithCancel(context.Background())
	t.Cleanup(stopSurvivor)
	t.Cleanup(killVictim)
	go dist.RunWorker(victimCtx, dist.WorkerOptions{Coordinator: srv.URL, Name: "victim", Poll: 10 * time.Millisecond})
	go dist.RunWorker(survivorCtx, dist.WorkerOptions{Coordinator: srv.URL, Name: "survivor", Poll: 10 * time.Millisecond})

	experiments.ResetMemo()
	got := tsvOf(t, "fig1", experiments.Options{
		Backend: coord, CacheDir: cache,
		Progress: func(done, total int) {
			if done == 3 {
				killVictim() // the victim dies a third of the way in
			}
		},
	})
	if got != want {
		t.Errorf("TSV with a mid-sweep worker death differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
