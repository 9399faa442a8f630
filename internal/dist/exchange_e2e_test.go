package dist_test

// End-to-end peer cell exchange tests: a cold worker joining a fleet whose
// cells are already published must download them over the wire instead of
// re-simulating, indicator false positives must degrade to local
// simulation — never to wrong results — and a holder that serves no peers
// is not advertised at all. Every path is asserted with the sweep TSV
// byte-identical to the serial run.

import (
	"context"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
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

// TestDistColdWorkerFetchesEverything: coordinator whose own store holds
// every published cell + cold worker, no holder anywhere. Every grant is
// hinted held from the coordinator's store and carries no holder address,
// so the cold worker — the only executor — FETCHes each cell from the
// coordinator: it simulates 0 cells, and the TSV is byte-identical to the
// serial in-process run.
func TestDistColdWorkerFetchesEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	warm, cold := t.TempDir(), t.TempDir()

	// Serial baseline publishes all cells into the coordinator's store.
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{CacheDir: warm})

	experiments.RegisterCellExecutor(experiments.Options{CacheDir: cold})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 2 * time.Second, CacheDir: warm})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
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
	if st.Fetches != fig1Cells || st.FetchServed != fig1Cells || st.FetchFalsePos != 0 {
		t.Errorf("fetch counters = %d fetches / %d served / %d false positives, want %d / %d / 0",
			st.Fetches, st.FetchServed, st.FetchFalsePos, fig1Cells, fig1Cells)
	}
	if st.FetchDirect != 0 || st.FetchFallback != 0 || st.Adverts != 0 {
		t.Errorf("direct %d / fallback %d / adverts %d, want 0 of each (no worker serves peers)",
			st.FetchDirect, st.FetchFallback, st.Adverts)
	}
}

// TestDistUnservedHolderIsNotAdvertised: a holder-only worker without a
// peer listener holds every published cell, but nobody could fetch them
// from it, so it sends no ADVERT and no grant is hinted: the cold worker
// simulates every cell without a single fetch round-trip, and the TSV is
// still byte-identical to the serial run.
func TestDistUnservedHolderIsNotAdvertised(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep twice")
	}
	warm := t.TempDir()
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{CacheDir: warm})

	experiments.RegisterCellExecutor(experiments.Options{CacheDir: t.TempDir()})
	coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 2 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "warm", Poll: 50 * time.Millisecond,
		CacheDir: warm, AdvertInterval: 20 * time.Millisecond,
		Kinds: []string{"exchange.holder-only"},
	})
	// The holder is connected before the sweep starts; a connected holder
	// with a peer listener would advertise at once.
	deadline := time.Now().Add(5 * time.Second)
	for !liveConn(coord, "warm") {
		if time.Now().After(deadline) {
			t.Fatal("the holder never connected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	go dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator: srv.URL, Name: "cold", Poll: 10 * time.Millisecond,
		CacheDir: t.TempDir(), AdvertInterval: 20 * time.Millisecond,
	})

	experiments.ResetMemo()
	sims, fetches := experiments.Simulations(), experiments.Fetched()
	if got := tsvOf(t, "fig1", experiments.Options{Backend: coord}); got != want {
		t.Errorf("unserved-holder TSV differs from serial TSV:\n--- serial ---\n%s\n--- simulated ---\n%s", want, got)
	}
	if d := experiments.Simulations() - sims; d != fig1Cells {
		t.Errorf("worker simulated %d cells, want %d (no holder is advertised)", d, fig1Cells)
	}
	if d := experiments.Fetched() - fetches; d != 0 {
		t.Errorf("worker installed %d fetched cells, want 0", d)
	}
	if st := coord.Stats(); st.Adverts != 0 || st.Fetches != 0 || st.FetchDirect != 0 {
		t.Errorf("adverts %d / fetches %d / direct %d, want 0 of each (nothing serves peers)",
			st.Adverts, st.Fetches, st.FetchDirect)
	}
}

// TestDistFalsePositiveFallsBackToSimulation: a fetch that a hint sends to
// a holder with nothing servable must degrade to local simulation, never to
// a wrong result: the sweep TSV stays byte-identical to the serial run and
// every miss is counted as a false positive.
//
//   - phantom: a holder advertises an all-ones filter (every key "held")
//     with an address nothing listens on, so every direct fetch fails,
//     every fallback to the coordinator's (empty) store misses, and every
//     cell is simulated.
//   - corrupt-holder: a real holder serving peers holds every cell, one of
//     them corrupt. Adverts come from file names, so the corrupt entry is
//     advertised; its direct fetch fails verification, the coordinator's
//     store misses, the holder's GetRaw evicts the entry, and the holder's
//     next advert no longer claims it. Every other cell arrives direct.
func TestDistFalsePositiveFallsBackToSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full quick-scale sweep three times")
	}
	// The serial baseline publishes every cell into the holder's store.
	warm := t.TempDir()
	experiments.ResetMemo()
	want := tsvOf(t, "fig1", experiments.Options{CacheDir: warm})

	// sweep runs fig1 through a fresh coordinator (no store) with one cold
	// worker, after setup has put the holder in the coordinator's table,
	// and checks the TSV and the fetch counters: fetched cells all arrive
	// direct, and each fallback is one coordinator fetch that misses.
	sweep := func(t *testing.T, setup func(context.Context, *dist.Coordinator, string), fetched, fallbacks uint64) dist.Stats {
		t.Helper()
		experiments.RegisterCellExecutor(experiments.Options{CacheDir: t.TempDir()})
		coord := dist.NewCoordinator(dist.CoordinatorOptions{LeaseTTL: 2 * time.Second})
		srv := httptest.NewServer(coord.Handler())
		t.Cleanup(srv.Close)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		setup(ctx, coord, srv.URL)
		go dist.RunWorker(ctx, dist.WorkerOptions{
			Coordinator: srv.URL, Name: "duped", Poll: 10 * time.Millisecond,
			CacheDir: t.TempDir(),
		})

		experiments.ResetMemo()
		sims, fetches := experiments.Simulations(), experiments.Fetched()
		got := tsvOf(t, "fig1", experiments.Options{Backend: coord})
		if got != want {
			t.Errorf("false-positive TSV differs from serial TSV:\n--- serial ---\n%s\n--- duped ---\n%s", want, got)
		}
		if d := experiments.Fetched() - fetches; d != fetched {
			t.Errorf("worker installed %d fetched cells, want %d", d, fetched)
		}
		if d := experiments.Simulations() - sims; d != fallbacks {
			t.Errorf("worker simulated %d cells, want %d (each failed fetch falls back)", d, fallbacks)
		}
		st := coord.Stats()
		if st.FetchDirect != fetched || st.Fetches != fallbacks || st.FetchFalsePos != fallbacks {
			t.Errorf("fetch counters = %d direct / %d coordinator fetches / %d false positives, want %d / %d / %d",
				st.FetchDirect, st.Fetches, st.FetchFalsePos, fetched, fallbacks, fallbacks)
		}
		if st.FetchServed != 0 || st.FetchFallback != 0 {
			t.Errorf("served %d / fallback %d from a coordinator without a store, want 0", st.FetchServed, st.FetchFallback)
		}
		return st
	}

	t.Run("phantom", func(t *testing.T) {
		// An address that refuses connections: listen, note it, close.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := l.Addr().String()
		l.Close()
		sweep(t, func(_ context.Context, coord *dist.Coordinator, _ string) {
			// Phantom advert: 64 set bits claim every possible key, and
			// the named holder is not there to serve any of them.
			coord.AdvertEverything("phantom", dead)
		}, 0, fig1Cells)
	})

	t.Run("corrupt-holder", func(t *testing.T) {
		entries, _ := filepath.Glob(filepath.Join(warm, "*", "*.cell"))
		if len(entries) != fig1Cells {
			t.Fatalf("holder store has %d entries, want %d", len(entries), fig1Cells)
		}
		bad := entries[len(entries)/2]
		if err := os.WriteFile(bad, []byte("not a cell entry"), 0o644); err != nil {
			t.Fatal(err)
		}
		var coord *dist.Coordinator
		sweep(t, func(ctx context.Context, c *dist.Coordinator, url string) {
			coord = c
			// A holder-only worker serving peers: its kind list matches no
			// job.
			go dist.RunWorker(ctx, dist.WorkerOptions{
				Coordinator: url, Name: "warm", Poll: 50 * time.Millisecond,
				CacheDir: warm, AdvertInterval: 20 * time.Millisecond,
				Kinds:    []string{"exchange.holder-only"},
				PeerAddr: "127.0.0.1:0",
			})
			waitForAdverts(t, c, 1)
		}, fig1Cells-1, 1)
		if _, err := os.Stat(bad); !os.IsNotExist(err) {
			t.Fatalf("the holder's GetRaw left the corrupt entry in place (stat: %v)", err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !coord.AdvertMatches("warm", warm) {
			if time.Now().After(deadline) {
				t.Fatal("the holder's advert still differs from its store after the eviction")
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
