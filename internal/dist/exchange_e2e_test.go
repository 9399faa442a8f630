package dist_test

// End-to-end peer cell exchange tests: a cold worker joining a fleet whose
// cells are already published must download them over the wire instead of
// re-simulating (the tentpole claim), and indicator false positives must
// degrade to local simulation — never to wrong results. Both paths are
// asserted with the sweep TSV byte-identical to the serial run.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/experiments"
)

// waitForAdverts blocks until the coordinator has absorbed at least n
// indicator advertisements (hints are computed at grant time, so the sweep
// must not start before the holders are in the table).
func waitForAdverts(t *testing.T, coord *dist.Coordinator, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Adverts < n {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator absorbed %d adverts, want >= %d", coord.Stats().Adverts, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistColdWorkerFetchesEverything: coordinator + warm (holder-only)
// worker + cold worker. Every cell is already published in the warm
// worker's store; the coordinator's own store is empty, so each fetch
// relays through the holder. The cold worker — the only executor — must
// complete the sweep simulating 0 cells, fetching all of them, with TSV
// byte-identical to the serial in-process run.
func TestDistColdWorkerFetchesEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	warm, cold := t.TempDir(), t.TempDir()

	// Serial baseline publishes all cells into the warm store.
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{CacheDir: warm})

	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cold})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 2 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	// The warm worker only holds and serves: its kind list matches no job,
	// so it advertises its store and answers relayed fetches, nothing else.
	go dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "warm", Poll: 50 * time.Millisecond,
		CacheDir: warm, AdvertInterval: 20 * time.Millisecond,
		Kinds: []string{"exchange.holder-only"},
	})
	waitForAdverts(t, coord, 1)

	// The cold worker registers the process-global key fetcher last, so the
	// executor's fetch path is its transport.
	go dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "cold", Poll: 10 * time.Millisecond,
		CacheDir: cold, AdvertInterval: 20 * time.Millisecond,
	})

	experiments.ResetMemo()
	sims, fetches := experiments.Simulations(), experiments.Fetched()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord})
	if got != want {
		t.Errorf("cold-fetch TSV differs from serial TSV:\n--- serial ---\n%s\n--- fetched ---\n%s", want, got)
	}
	if d := experiments.Simulations() - sims; d != 0 {
		t.Errorf("cold worker simulated %d published cells, want 0", d)
	}
	if d := experiments.Fetched() - fetches; d != fig1Cells {
		t.Errorf("cold worker fetched %d cells, want %d", d, fig1Cells)
	}
	st := coord.Stats()
	if st.Completed != fig1Cells {
		t.Errorf("coordinator completed %d jobs, want %d", st.Completed, fig1Cells)
	}
	if st.Fetches != fig1Cells || st.FetchRelayed != fig1Cells {
		t.Errorf("fetch counters = %d fetches / %d relayed, want %d of each (coordinator store is empty — every hit relays)",
			st.Fetches, st.FetchRelayed, fig1Cells)
	}
	if st.FetchFalsePos != 0 {
		t.Errorf("FetchFalsePos = %d, want 0", st.FetchFalsePos)
	}
}

// TestDistFalsePositiveFallsBackToSimulation: a phantom holder advertises
// an all-ones filter (every key "held"), so the worker fetches every cell
// and every fetch misses. The sweep must still complete with byte-identical
// TSV — each miss degrades to local simulation — and the misses must be
// visible in the false-positive counter.
func TestDistFalsePositiveFallsBackToSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{})

	cold := t.TempDir()
	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cold})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 2 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	// Phantom advert: 64 set bits claim every possible key. No connection
	// backs the name, so routing finds no holder and every fetch misses.
	coord.AdvertEverything("phantom")

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "duped", Poll: 10 * time.Millisecond,
		CacheDir: cold,
	})

	experiments.ResetMemo()
	sims, fetches := experiments.Simulations(), experiments.Fetched()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord})
	if got != want {
		t.Errorf("false-positive TSV differs from serial TSV:\n--- serial ---\n%s\n--- duped ---\n%s", want, got)
	}
	if d := experiments.Fetched() - fetches; d != 0 {
		t.Errorf("worker installed %d fetched cells, want 0 (every fetch must miss)", d)
	}
	if d := experiments.Simulations() - sims; d != fig1Cells {
		t.Errorf("worker simulated %d cells, want %d (every fetch falls back)", d, fig1Cells)
	}
	st := coord.Stats()
	if st.Fetches != fig1Cells || st.FetchFalsePos != fig1Cells {
		t.Errorf("fetch counters = %d fetches / %d false positives, want %d of each",
			st.Fetches, st.FetchFalsePos, fig1Cells)
	}
	if st.FetchServed != 0 || st.FetchRelayed != 0 {
		t.Errorf("served %d / relayed %d fetches from a phantom, want 0", st.FetchServed, st.FetchRelayed)
	}
}
