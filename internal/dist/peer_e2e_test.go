package dist_test

// End-to-end worker-to-worker data path tests: with a holder serving its
// store on a peer listener, a cold worker must warm up entirely over direct
// peer fetches — the coordinator never relays a byte — and when the holder
// loses its cells with its indicator still standing, every fetch must
// degrade direct → relay → local simulation. Both paths are asserted with the sweep TSV
// byte-identical to the serial run: the direct path is an optimization,
// never a correctness dependency.

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cellstore"
	"repro/internal/dist"
	"repro/internal/experiments"
)

// TestDistDirectFetchBypassesCoordinator: coordinator (no store) + warm
// holder-only worker serving a peer listener + cold worker. Every grant to
// the cold worker carries the holder's peer address, so each cell arrives
// over a direct worker-to-worker connection: zero coordinator fetches, zero
// relays, zero simulations, TSV byte-identical to the serial run. Nothing
// is ever written back to the holder that served the cells.
func TestDistDirectFetchBypassesCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	warm, cold := t.TempDir(), t.TempDir()

	// Serial baseline publishes all cells into the warm store.
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{CacheDir: warm})

	_, _, holderWrites := cellstore.For(warm).Counters()

	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cold})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 2 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	// The warm worker holds, serves, and — new here — listens for peers.
	go dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "warm", Poll: 50 * time.Millisecond,
		CacheDir: warm, AdvertInterval: 20 * time.Millisecond,
		Kinds:    []string{"exchange.holder-only"},
		PeerAddr: "127.0.0.1:0",
	})
	waitForAdverts(t, coord, 1)

	go dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "cold", Poll: 10 * time.Millisecond,
		CacheDir: cold, AdvertInterval: 20 * time.Millisecond,
	})

	experiments.ResetMemo()
	sims, fetches := experiments.Simulations(), experiments.Fetched()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord})
	if got != want {
		t.Errorf("direct-fetch TSV differs from serial TSV:\n--- serial ---\n%s\n--- direct ---\n%s", want, got)
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
	// The tentpole claim: the whole warm-up went worker-to-worker. The
	// coordinator saw no fetch traffic at all, only the result posts'
	// delta counters reporting what happened behind its back.
	if st.FetchDirect != fig1Cells {
		t.Errorf("FetchDirect = %d, want %d", st.FetchDirect, fig1Cells)
	}
	if st.Fetches != 0 || st.FetchRelayed != 0 || st.FetchFallback != 0 {
		t.Errorf("coordinator fetch counters = %d fetches / %d relayed / %d fallbacks, want 0 of each (every fetch should go direct)",
			st.Fetches, st.FetchRelayed, st.FetchFallback)
	}
	// A fetch is a read: the holder's store is never written during the
	// sweep, so serving a cell costs the holder no install.
	if _, _, w := cellstore.For(warm).Counters(); w != holderWrites {
		t.Errorf("holder store took %d writes during the sweep, want 0", w-holderWrites)
	}
}

// TestDistHolderDeathFallsBackToSimulation: when a holder's cells are gone,
// every fetch degrades direct → relay → local simulation, and when the
// holder itself dies, nobody is sent to it at all. Both sweeps must
// complete with TSV byte-identical to the serial run — the fallback chain
// never produces a wrong result, only slower ones.
//
// First the holder loses its cells while still connected (its store is
// wiped after its only advert, so its indicator goes stale): every grant
// hints held with the holder's live peer address, the direct fetch and the
// relay both come back not-found, and the worker simulates. Then the holder
// dies: its indicator goes with its wire connection, so a fresh cold worker
// is never hinted and simulates without a single fetch round-trip.
func TestDistHolderDeathFallsBackToSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep three times")
	}
	warm, cold := t.TempDir(), t.TempDir()

	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{CacheDir: warm})

	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cold})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 10 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)

	// One advert, then silence: the holder never notices its store emptying.
	holderCtx, killHolder := context.WithCancel(context.Background())
	t.Cleanup(killHolder)
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		dist.RunWorker(holderCtx, dist.WorkerOptions{
			Coordinator: srv.URL, Name: "warm", Poll: 50 * time.Millisecond,
			CacheDir: warm, AdvertInterval: time.Hour,
			Kinds:    []string{"exchange.holder-only"},
			PeerAddr: "127.0.0.1:0",
		})
	}()
	waitForAdverts(t, coord, 1)
	entries, err := os.ReadDir(warm)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(warm, e.Name())); err != nil {
			t.Fatal(err)
		}
	}

	coldCtx, stopCold := context.WithCancel(context.Background())
	t.Cleanup(stopCold)
	go dist.RunWorker(coldCtx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "cold", Poll: 10 * time.Millisecond,
		CacheDir: cold, AdvertInterval: 20 * time.Millisecond,
	})

	experiments.ResetMemo()
	sims, fetches := experiments.Simulations(), experiments.Fetched()
	got := tsvOf(t, "fig1", experiments.Options{Backend: coord})
	if got != want {
		t.Errorf("stale-holder TSV differs from serial TSV:\n--- serial ---\n%s\n--- fallback ---\n%s", want, got)
	}
	if d := experiments.Fetched() - fetches; d != 0 {
		t.Errorf("worker installed %d fetched cells, want 0 (the only holder's cells are gone)", d)
	}
	if d := experiments.Simulations() - sims; d != fig1Cells {
		t.Errorf("worker simulated %d cells, want %d (every fetch must fall back)", d, fig1Cells)
	}
	st := coord.Stats()
	if st.FetchDirect != 0 || st.FetchFallback != 0 {
		t.Errorf("FetchDirect = %d / FetchFallback = %d, want 0 of each (no fetch can succeed)",
			st.FetchDirect, st.FetchFallback)
	}
	// Every direct failure fell through to the relay, which the holder
	// answered not-found: all of them count as coordinator false positives.
	if st.Fetches != fig1Cells || st.FetchFalsePos != fig1Cells {
		t.Errorf("fetch counters = %d fetches / %d false positives, want %d of each",
			st.Fetches, st.FetchFalsePos, fig1Cells)
	}
	if st.FetchServed != 0 || st.FetchRelayed != 0 {
		t.Errorf("served %d / relayed %d from an emptied holder, want 0", st.FetchServed, st.FetchRelayed)
	}

	// The holder dies; its wire connection is torn down, taking its
	// indicator with it. A fresh cold worker then runs the sweep again.
	killHolder()
	<-holderDone
	stopCold()
	deadline := time.Now().Add(5 * time.Second)
	for liveConn(coord, "warm") || liveConn(coord, "cold") {
		if time.Now().After(deadline) {
			t.Fatal("the dead holder's (or the stopped worker's) wire connection never retired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cold2 := t.TempDir()
	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cold2})
	cold2Ctx, stopCold2 := context.WithCancel(context.Background())
	t.Cleanup(stopCold2)
	go dist.RunWorker(cold2Ctx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "cold2", Poll: 10 * time.Millisecond,
		CacheDir: cold2, AdvertInterval: 20 * time.Millisecond,
	})

	experiments.ResetMemo()
	sims, fetches = experiments.Simulations(), experiments.Fetched()
	before := coord.Stats()
	if got := tsvOf(t, "fig1", experiments.Options{Backend: coord}); got != want {
		t.Errorf("dead-holder TSV differs from serial TSV:\n--- serial ---\n%s\n--- fallback ---\n%s", want, got)
	}
	if d := experiments.Simulations() - sims; d != fig1Cells {
		t.Errorf("worker simulated %d cells, want %d", d, fig1Cells)
	}
	if d := experiments.Fetched() - fetches; d != 0 {
		t.Errorf("worker installed %d fetched cells, want 0 (the only holder is dead)", d)
	}
	if d := coord.Stats().Fetches - before.Fetches; d != 0 {
		t.Errorf("%d fetches after the holder died, want 0 (its indicator must go with its connection)", d)
	}
}

// liveConn reports whether worker has a live wire connection to coord.
func liveConn(coord *dist.Coordinator, worker string) bool {
	for _, wc := range coord.Snapshot().WireConns {
		if wc.Worker == worker && !wc.Closed {
			return true
		}
	}
	return false
}
