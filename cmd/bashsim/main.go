// Command bashsim regenerates the tables and figures of "Bandwidth Adaptive
// Snooping" (Martin, Sorin, Hill, Wood — HPCA 2002).
//
// Usage:
//
//	bashsim -exp fig1            # one experiment, quick scale
//	bashsim -exp all -scale full # every experiment at paper scale
//	bashsim -exp fig10 -parallel 8 -progress  # bounded fan-out, live progress
//	bashsim -list                # list experiment ids
//	bashsim -run -protocol bash -nodes 64 -bandwidth 800   # one ad-hoc run
//
// Distributed mode fans sweep cells across worker processes (same binary,
// any machine) through the lease-based job protocol of internal/dist.
// Leases carry batches of cells (-lease-batch), the protocol optionally
// authenticates with a shared secret (-dist-secret on both roles), and the
// coordinator's own idle cores execute jobs too (-co-execute, default one
// slot per CPU), so a lone coordinator makes progress without any workers:
//
//	bashsim -worker http://coord:8497 -dist-secret s3 &  # on each worker machine
//	bashsim -exp all -serve :8497 -dist-secret s3        # coordinator: dispatches cells
//
// Service mode — `-serve` without an explicit `-exp` — keeps the
// coordinator alive across sweeps: it accepts named sweep submissions,
// schedules them across the shared fleet by priority, and serves a live
// status page and Prometheus metrics (see internal/svc). SIGINT/SIGTERM
// drains gracefully:
//
//	bashsim -serve :8497 &                            # long-lived sweep service
//	bashsim -submit http://localhost:8497 -exp fig1   # queue a named sweep
//	bashsim -status http://localhost:8497             # one-line fleet/sweep table
//	curl http://localhost:8497/sweeps/s001/result.tsv # retrieve its artifacts
//
// Campaign mode drives the full-scale figure grid as a long-running,
// resumable run: seeds escalate per cell until the metric's coefficient of
// variation drops under -cov-target (or -max-seeds), and progress
// checkpoints atomically to -campaign-state after every round, so a killed
// campaign resumes without re-simulating anything:
//
//	bashsim -campaign -scale full -campaign-state campaign.json
//	bashsim -campaign -serve :8497 ...    # same, dispatching to a fleet
//
// Cell-store hygiene:
//
//	bashsim -cache-gc                     # evict stale/aged cache entries
//
// Output is TSV on stdout (or -out FILE), one block per artifact. Sweeps
// fan out across the run-orchestration layer; results are folded in job
// order, so the TSV is byte-identical at any -parallel setting — and, via
// the content-addressed cell store, at any worker-fleet composition.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/campaign"
	"repro/internal/cellstore"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/svc"
	"repro/internal/tester"
	"repro/internal/workload"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale = flag.String("scale", "quick", "quick | full")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		out   = flag.String("out", "", "write output to a file instead of stdout")

		parallel = flag.Int("parallel", 0, "sweep worker goroutines (0 = one per CPU, 1 = serial); worker job slots in -worker mode")
		timeout  = flag.Duration("timeout", 0, "abort experiments after this long (0 = no limit)")
		progress = flag.Bool("progress", false, "report per-cell sweep progress on stderr")
		cacheDir = flag.String("cache-dir", ".cache", "persistent cell-result cache directory")
		noCache  = flag.Bool("no-cache", false, "disable the persistent cell-result cache")
		noReuse  = flag.Bool("no-reuse", false, "disable System pooling (fresh construction per cell)")
		watchdog = flag.Duration("watchdog", 0, "per-cell forward-progress watchdog interval in simulated time (0 = 500ms default)")

		serve      = flag.String("serve", "", "coordinate a distributed run: serve the job protocol on this address (e.g. :8497) and dispatch sweep cells to workers")
		worker     = flag.String("worker", "", "run as a distributed worker against this coordinator URL (e.g. http://host:8497)")
		leaseTTL   = flag.Duration("lease-ttl", 0, "distributed job lease TTL before reassignment (0 = 15s default)")
		leaseBatch = flag.Int("lease-batch", 4, "max jobs granted per distributed lease (1 = one cell per round-trip)")
		workerPoll = flag.Duration("poll", 0, "with -worker: idle re-poll interval when the coordinator has no work (0 = 500ms default)")
		distSecret = flag.String("dist-secret", "", "shared secret authenticating the distributed job protocol (both -serve and -worker; empty = unauthenticated)")
		coExecute  = flag.Int("co-execute", runtime.NumCPU(), "in-process worker slots the coordinator runs alongside dispatching (0 = dispatch only)")
		distStatus = flag.String("dist-status", "", "with -serve: write the coordinator's final /dist/status JSON to this file")
		advBudget  = flag.Int("advert-budget", 65536, "peer cell exchange: approximate bytes/sec each worker may spend advertising its cell-store indicator (0 = unpaced)")
		workerKind = flag.String("worker-kinds", "", "with -worker: comma-separated job kinds to lease (empty = every registered executor); a kind matching no jobs makes a holder-only worker that just advertises and serves its cell store")
		peerAddr   = flag.String("peer-addr", "", "with -worker: serve this worker's cell store to other workers on this address (e.g. :9102; must be dialable by peers); empty disables the direct data path")
		waitWork   = flag.Int("wait-workers", 0, "with -serve: wait for this many live workers (and their first indicator adverts) before dispatching")

		submit    = flag.String("submit", "", "submit a named sweep (-exp, -scale, -priority) to a sweep-service coordinator at this URL and exit")
		statusURL = flag.String("status", "", "query a running coordinator's /dist/status at this URL, print an aligned table, and exit")
		priority  = flag.Int("priority", 0, "with -submit: sweep priority (higher runs first; equal priorities run FIFO)")
		maxSweeps = flag.Int("max-sweeps", 0, "with -serve service mode: concurrently running sweeps (0 = 2)")

		cacheGC     = flag.Bool("cache-gc", false, "evict stale-format and aged cell-store entries, print a report, and exit")
		cacheMaxAge = flag.Duration("cache-max-age", 30*24*time.Hour, "with -cache-gc: evict entries older than this (0 = stale formats only)")

		campaignMode  = flag.Bool("campaign", false, "run the resumable figure campaign for -scale (its own grid; excludes -exp)")
		covTarget     = flag.Float64("cov-target", 0, "with -campaign: per-cell CoV convergence target (0 = the paper's 1%; negative = never, run every cell to -max-seeds)")
		maxSeeds      = flag.Int("max-seeds", 0, "with -campaign: seed cap per cell (0 = 16)")
		campaignState = flag.String("campaign-state", "campaign.json", "with -campaign: checkpoint file for resumable progress (empty disables)")
		seedsFlag     = flag.String("seeds", "", "comma-separated seed list for sweeps (e.g. 11,23,37; empty = per-scale defaults); applies to -exp, -submit, and -campaign")

		single    = flag.Bool("run", false, "single ad-hoc run instead of an experiment")
		protoName = flag.String("protocol", "bash", "snooping | directory | bash | bash-pred | bash-bcast | bash-ucast")
		nodes     = flag.Int("nodes", 16, "processors (single run)")
		bandwidth = flag.Float64("bandwidth", 1600, "endpoint MB/s (single run)")
		bcost     = flag.Float64("bcost", 1, "broadcast cost multiplier (single run)")
		wlName    = flag.String("workload", "locking", "locking | oltp | apache | specjbb | slashcode | barnes | migratory")
		think     = flag.Int64("think", 0, "locking think time in cycles (single run)")
		ops       = flag.Uint64("ops", 20000, "measured operations (single run)")
	)
	flag.Parse()

	// Reject contradictory flag combinations up front with a description of
	// the conflict, instead of silently ignoring one side.
	expSet, seedsSet, campaignKnob := false, false, ""
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "exp":
			expSet = true
		case "seeds":
			seedsSet = true
		case "cov-target", "max-seeds", "campaign-state":
			campaignKnob = "-" + f.Name
		}
	})
	switch {
	case *worker != "" && *serve != "":
		fatalUsage("-worker and -serve are mutually exclusive: a process either leases jobs from a coordinator or is one")
	case *waitWork > 0 && *serve == "":
		fatalUsage("-wait-workers only applies to a coordinator; add -serve ADDR")
	case *submit != "" && *single:
		fatalUsage("-submit and -run are mutually exclusive: -submit queues a named sweep on a remote service, -run simulates one ad-hoc configuration locally")
	case *submit != "" && *serve != "":
		fatalUsage("-submit and -serve are mutually exclusive: start the service first, then submit to it from another process")
	case *campaignMode && expSet:
		fatalUsage("-campaign runs its own figure grid and excludes -exp; drop one of them")
	case *campaignMode && *single:
		fatalUsage("-campaign and -run are mutually exclusive")
	case *campaignMode && *submit != "":
		fatalUsage("-campaign and -submit are mutually exclusive: a campaign drives its own sweeps")
	case *campaignMode && *worker != "":
		fatalUsage("-campaign and -worker are mutually exclusive: point workers at the campaign's -serve address instead")
	case campaignKnob != "" && !*campaignMode:
		fatalUsage(campaignKnob + " only applies to a campaign; add -campaign")
	case *peerAddr != "" && *worker == "":
		fatalUsage("-peer-addr only applies to a worker; add -worker URL")
	case *peerAddr != "" && *noCache:
		fatalUsage("-peer-addr needs the cell store that -no-cache disables: a peer listener with no store has nothing to serve")
	}
	var seedList []uint64
	if seedsSet {
		var err error
		if seedList, err = experiments.ParseSeeds(*seedsFlag); err != nil {
			fmt.Fprintf(os.Stderr, "bashsim: -seeds: %v\n", err)
			os.Exit(2)
		}
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *cacheGC {
		runCacheGC(*cacheDir, *cacheMaxAge)
		return
	}
	if *statusURL != "" {
		runStatus(*statusURL, *distSecret)
		return
	}
	if *submit != "" {
		runSubmit(*submit, *exp, *scale, *priority, seedList, *distSecret)
		return
	}
	if *worker != "" {
		runWorker(*worker, *cacheDir, *noCache, *noReuse, *parallel, *distSecret, *workerPoll, *advBudget, *workerKind, *peerAddr)
		return
	}
	if *single {
		singleRun(*protoName, *nodes, *bandwidth, *bcost, *wlName, *think, *ops)
		return
	}

	opts := experiments.Options{
		Parallel:         *parallel,
		Seeds:            seedList,
		NoReuse:          *noReuse,
		WatchdogInterval: sim.Time(watchdog.Nanoseconds()),
	}
	if !*noCache {
		// Probe the directory up front so an unusable -cache-dir warns
		// loudly instead of silently running uncached.
		if _, err := cellstore.Open(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "bashsim: cell cache disabled: %v\n", err)
		} else {
			opts.CacheDir = *cacheDir
		}
	}
	switch *scale {
	case "quick":
		opts.Scale = experiments.Quick
	case "full":
		opts.Scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "bashsim: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	// -serve with no explicit -exp enters service mode: the coordinator
	// stays up, runs submitted sweeps, and drains on SIGINT/SIGTERM. An
	// explicit -exp (even "-exp all") keeps the classic one-shot behavior:
	// serve, run that experiment across the fleet, exit.
	if *serve != "" && !expSet && !*campaignMode {
		runService(*serve, dist.CoordinatorOptions{
			LeaseTTL:   *leaseTTL,
			LeaseBatch: *leaseBatch,
			Secret:     *distSecret,
			CoExecute:  *coExecute,
			CacheDir:   opts.CacheDir,
		}, opts, *maxSweeps, *distStatus)
		return
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = ctx
	}

	if *campaignMode {
		runCampaign(opts, *serve, dist.CoordinatorOptions{
			LeaseTTL:   *leaseTTL,
			LeaseBatch: *leaseBatch,
			Secret:     *distSecret,
			CoExecute:  *coExecute,
			CacheDir:   opts.CacheDir,
		}, campaign.Options{
			CovTarget: *covTarget,
			MaxSeeds:  *maxSeeds,
			StatePath: *campaignState,
			Priority:  *priority,
		}, *waitWork, *progress, *out)
		return
	}

	var coord *dist.Coordinator
	if *serve != "" {
		coord = serveCoordinator(*serve, dist.CoordinatorOptions{
			LeaseTTL:   *leaseTTL,
			LeaseBatch: *leaseBatch,
			Secret:     *distSecret,
			CoExecute:  *coExecute,
			CacheDir:   opts.CacheDir,
		}, opts)
		opts.Backend = coord
		if *waitWork > 0 {
			awaitWorkers(coord, *waitWork)
		}
	}
	if *progress {
		opts.Progress = func(done, total int) {
			if coord != nil {
				fmt.Fprintf(os.Stderr, "\r%d/%d cells (%d workers)", done, total, coord.Workers())
			} else {
				fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
			}
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bashsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	var manifest *cellstore.Manifest
	if opts.CacheDir != "" {
		manifest = cellstore.LoadManifest(opts.CacheDir)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		prevHits, prevMisses, prevWrites := experiments.CacheCounters(opts.CacheDir)
		arts, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bashsim: %v\n", err)
			os.Exit(1)
		}
		for _, a := range arts {
			fmt.Fprintln(w, a.TSV())
		}
		line := fmt.Sprintf("%-10s %6.1fs", id, time.Since(start).Seconds())
		if opts.CacheDir != "" {
			hits, misses, writes := experiments.CacheCounters(opts.CacheDir)
			line += fmt.Sprintf("   cache %d hits / %d misses", hits-prevHits, misses-prevMisses)
			manifest.Record(id, hits-prevHits, misses-prevMisses, writes-prevWrites)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if opts.CacheDir != "" {
		hits, misses, writes := experiments.CacheCounters(opts.CacheDir)
		fmt.Fprintf(os.Stderr, "cell cache (%s): %d hits, %d misses, %d written, %d cells simulated\n",
			opts.CacheDir, hits, misses, writes, experiments.Simulations())
		if err := manifest.Save(opts.CacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "bashsim: manifest not saved: %v\n", err)
		}
		fmt.Fprint(os.Stderr, manifest)
	}
	if coord != nil {
		st := coord.Stats()
		fmt.Fprintf(os.Stderr, "dist: %d jobs dispatched over %d leases + %d refills, %d completed, %d leases reassigned, %d failed\n",
			st.Dispatched, st.Leases, st.Refills, st.Completed, st.Reassigned, st.Failed)
		if st.Fetches > 0 || st.Adverts > 0 {
			fmt.Fprintf(os.Stderr, "exchange: %d adverts (%d bytes), %d fetches (%d served locally, %d relayed, %d missed)\n",
				st.Adverts, st.AdvertBytes, st.Fetches, st.FetchServed, st.FetchRelayed, st.FetchFalsePos)
		}
		if *distStatus != "" {
			if err := writeDistStatus(coord, *distStatus); err != nil {
				fmt.Fprintf(os.Stderr, "bashsim: -dist-status: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// fatalUsage reports a flag-combination error and exits with the usage
// status.
func fatalUsage(msg string) {
	fmt.Fprintf(os.Stderr, "bashsim: %s\n", msg)
	os.Exit(2)
}

// runService runs the long-lived sweep service until a SIGINT/SIGTERM,
// then drains: submissions are refused, queued sweeps cancel, leased
// batches finish or expire, and the combined final status is persisted to
// -dist-status.
func runService(addr string, copt dist.CoordinatorOptions, opts experiments.Options, maxSweeps int, statusPath string) {
	if copt.CoExecute > 0 {
		// The cell executor is registered by svc.New; trials only matter if
		// a tester coordinator shares the fleet, but registering is free.
		tester.RegisterTrialExecutor(opts.CacheDir)
	}
	s := svc.New(svc.Options{
		Coordinator: copt,
		Experiments: opts,
		MaxActive:   maxSweeps,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: -serve %s: %v\n", addr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bashsim: sweep service on %s\n  submit: bashsim -submit http://%s -exp fig1\n  status: http://%s/ (HTML) · /metrics (Prometheus) · /sweeps (JSON)\n",
		l.Addr(), l.Addr(), l.Addr())
	go s.Serve(l)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop() // a second signal now kills outright instead of queueing behind the drain

	ttl := copt.LeaseTTL
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	drainBudget := 4 * ttl
	fmt.Fprintf(os.Stderr, "bashsim: draining: leased batches finish or expire (up to %s)\n", drainBudget)
	dctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: drain: %v\n", err)
	}
	l.Close()

	if statusPath != "" {
		f, err := os.Create(statusPath)
		if err == nil {
			err = s.WriteStatus(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bashsim: -dist-status: %v\n", err)
			os.Exit(1)
		}
	}
	st := s.Coordinator().Stats()
	fmt.Fprintf(os.Stderr, "dist: %d jobs dispatched over %d leases + %d refills, %d completed, %d leases reassigned, %d failed\n",
		st.Dispatched, st.Leases, st.Refills, st.Completed, st.Reassigned, st.Failed)
}

// runCampaign runs the resumable figure campaign: optionally coordinating
// a fleet (with campaign CoV gauges on /metrics alongside the dist
// counters), escalating seeds per cell to the CoV target, checkpointing to
// -campaign-state after every round, and printing one TSV block per panel.
// SIGINT/SIGTERM cancel the run gracefully — in-flight cells finish and
// land in the cell store, the checkpoint keeps the frontier, and re-running
// the same command resumes with zero re-simulation.
func runCampaign(opts experiments.Options, serveAddr string, copt dist.CoordinatorOptions,
	camp campaign.Options, waitWorkers int, progress bool, outPath string) {

	base := opts.Context
	if base == nil {
		base = context.Background()
	}
	ctx, stop := signal.NotifyContext(base, os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Context = ctx

	var coord *dist.Coordinator
	if serveAddr != "" {
		if copt.CoExecute > 0 {
			experiments.RegisterCellExecutor(experiments.Options{CacheDir: opts.CacheDir, NoReuse: opts.NoReuse})
			tester.RegisterTrialExecutor(opts.CacheDir)
		}
		coord = dist.NewCoordinator(copt)
		opts.Backend = coord
	}
	if progress {
		opts.Progress = func(done, total int) {
			if coord != nil {
				fmt.Fprintf(os.Stderr, "\r%d/%d cells (%d workers)", done, total, coord.Workers())
			} else {
				fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
			}
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	camp.Experiments = opts
	camp.Log = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	c, err := campaign.New(camp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: %v\n", err)
		os.Exit(2)
	}
	if coord != nil {
		reg := obs.NewRegistry()
		coord.RegisterMetrics(reg)
		c.RegisterMetrics(reg)
		reg.CounterFunc("bashsim_cells_simulated_total", "simulation cells actually executed", experiments.Simulations)
		mux := http.NewServeMux()
		mux.Handle("/dist/", coord.Handler())
		mux.Handle("GET /metrics", reg.Handler())
		l, err := net.Listen("tcp", serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bashsim: -serve %s: %v\n", serveAddr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bashsim: campaign coordinating on %s (workers: bashsim -worker http://%s; metrics: http://%s/metrics)\n",
			l.Addr(), l.Addr(), l.Addr())
		go coord.ServeHandler(l, mux)
		defer l.Close()
		if waitWorkers > 0 {
			awaitWorkers(coord, waitWorkers)
		}
	}

	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bashsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	sims0 := experiments.Simulations()
	res, err := c.Run()
	elapsed := time.Since(start).Seconds()
	sims := experiments.Simulations() - sims0
	if err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: %v\n", err)
		if camp.StatePath != "" {
			fmt.Fprintf(os.Stderr, "bashsim: campaign checkpoint %s holds the frontier (simulated %d cells this run); re-run the same command to resume\n",
				camp.StatePath, sims)
		}
		os.Exit(1)
	}
	for _, p := range res.Panels {
		fmt.Fprintln(w, p.TSV)
	}
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	fmt.Fprintf(os.Stderr, "campaign summary: panels=%d resumed=%d cells=%d converged=%d seeds=%d escalated=%d simulated=%d elapsed=%.2fs cells_per_sec=%.1f\n",
		len(res.Panels), res.PanelsResumed, res.Cells, res.Converged, res.SeedsRun, res.Escalated, sims, elapsed, float64(res.Cells)/elapsed)
	if coord != nil {
		st := coord.Stats()
		fmt.Fprintf(os.Stderr, "dist: %d jobs dispatched over %d leases + %d refills, %d completed, %d leases reassigned, %d failed\n",
			st.Dispatched, st.Leases, st.Refills, st.Completed, st.Reassigned, st.Failed)
	}
}

// runSubmit queues one named sweep on a sweep-service coordinator and
// prints the acknowledged id and queue position.
func runSubmit(coordinator, exp, scale string, priority int, seeds []uint64, secret string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := dist.SubmitSweep(ctx, dist.WorkerOptions{
		Coordinator: coordinator,
		Secret:      secret,
	}, dist.SubmitRequest{Exp: exp, Scale: scale, Priority: priority, Seeds: seeds})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: -submit: %v\n", err)
		os.Exit(1)
	}
	base := strings.TrimRight(coordinator, "/")
	fmt.Printf("queued %s: %s -scale %s at position %d\n", resp.ID, exp, scale, resp.Position)
	fmt.Printf("watch %s/sweeps/%s — result at %s/sweeps/%s/result.tsv\n", base, resp.ID, base, resp.ID)
}

// runStatus fetches a running coordinator's /dist/status and prints it as
// the aligned table humans previously only got from the final JSON file.
func runStatus(coordinator, secret string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := dist.FetchStatus(ctx, nil, coordinator, secret)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: -status: %v\n", err)
		os.Exit(1)
	}
	state := "idle"
	if st.Active {
		state = fmt.Sprintf("active, %d/%d cells", st.Done, st.Total)
	}
	if st.Draining {
		state += ", draining"
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(w, "coordinator\t%s (%s)\n", coordinator, state)
	fmt.Fprintf(w, "workers\t%d live\n", st.Workers)
	fmt.Fprintf(w, "leases\t%d grants, %d refills, %d reassigned\n", st.Leases, st.Refills, st.Reassigned)
	fmt.Fprintf(w, "jobs\t%d dispatched, %d completed, %d failed\n", st.Dispatched, st.Completed, st.Failed)
	fmt.Fprintf(w, "socket\t%d B in, %d B out\n", st.BytesIn, st.BytesOut)
	fmt.Fprintf(w, "frames\t%d in, %d out\n", st.FramesIn, st.FramesOut)
	fmt.Fprintf(w, "exchange\t%d adverts (%d B), %d fetches: %d served, %d relayed, %d false-pos\n",
		st.Adverts, st.AdvertBytes, st.Fetches, st.FetchServed, st.FetchRelayed, st.FetchFalsePos)
	fmt.Fprintf(w, "direct\t%d peer fetches, %d relay fallbacks\n", st.FetchDirect, st.FetchFallback)
	if len(st.WireConns) > 0 {
		fmt.Fprintf(w, "\nWORKER\tREMOTE\tFRAMES IN/OUT\tBYTES IN/OUT\t\n")
		for _, c := range st.WireConns {
			note := ""
			if c.Closed {
				note = "closed"
			}
			fmt.Fprintf(w, "%s\t%s\t%d/%d\t%d/%d\t%s\n",
				c.Worker, c.Remote, c.FramesIn, c.FramesOut, c.BytesIn, c.BytesOut, note)
		}
	}
	w.Flush()
}

// serveCoordinator starts the distributed job protocol on addr and returns
// the coordinator backend. With co-execution enabled it also registers this
// process's executors, so the coordinator's idle cores lease jobs through
// the same protocol path as external workers — a lone `bashsim -serve`
// still makes progress.
func serveCoordinator(addr string, copt dist.CoordinatorOptions, opts experiments.Options) *dist.Coordinator {
	if copt.CoExecute > 0 {
		experiments.RegisterCellExecutor(experiments.Options{CacheDir: opts.CacheDir, NoReuse: opts.NoReuse})
		tester.RegisterTrialExecutor(opts.CacheDir)
	}
	coord := dist.NewCoordinator(copt)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: -serve %s: %v\n", addr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bashsim: coordinating on %s (workers: bashsim -worker http://%s)\n",
		l.Addr(), l.Addr())
	// coord.Serve (not a bare http.Serve) so the socket-level byte counters
	// in /dist/status cover every connection, HTTP and binary alike.
	go coord.Serve(l)
	return coord
}

// awaitWorkers blocks dispatch until n workers have contacted the
// coordinator, plus a short settle so their first indicator adverts land
// before the first grants' held hints are computed (a cold fleet that
// starts dispatching instantly would compute every hint against an empty
// indicator table). Capped: missing workers must not hang a run forever.
func awaitWorkers(coord *dist.Coordinator, n int) {
	deadline := time.Now().Add(2 * time.Minute)
	for coord.Workers() < n {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "bashsim: -wait-workers %d: only %d appeared within 2m; dispatching anyway\n",
				n, coord.Workers())
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	// Workers with cache-less stores never advertise, so this wait is
	// bounded short rather than required.
	advertDeadline := time.Now().Add(2 * time.Second)
	for coord.Stats().Adverts == 0 && time.Now().Before(advertDeadline) {
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)
}

// writeDistStatus persists the coordinator's final /dist/status JSON — the
// CI smoke uploads it so per-commit lease and reassignment counts are
// inspectable.
func writeDistStatus(coord *dist.Coordinator, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := coord.WriteStatus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorker executes distributed jobs until interrupted. The worker
// registers both executors — experiment cells and tester trials — and
// publishes results into its cell store, which coordinators sharing the
// directory (or just this worker, across restarts) serve as cache hits.
// The store also feeds the peer cell exchange: its keys are advertised to
// the coordinator (paced by -advert-budget) and hinted cells are fetched
// from the fleet instead of simulated.
func runWorker(coordinator, cacheDir string, noCache, noReuse bool, slots int, secret string, poll time.Duration, advertBudget int, kindList, peerAddr string) {
	var kinds []string
	for _, k := range strings.Split(kindList, ",") {
		if k = strings.TrimSpace(k); k != "" {
			kinds = append(kinds, k)
		}
	}
	dir := cacheDir
	if noCache {
		dir = ""
	} else if _, err := cellstore.Open(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: worker cache disabled: %v\n", err)
		dir = ""
	}
	experiments.RegisterCellExecutor(experiments.Options{CacheDir: dir, NoReuse: noReuse})
	tester.RegisterTrialExecutor(dir)

	if slots <= 0 {
		slots = runtime.NumCPU() // match the -parallel flag's "0 = one per CPU"
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "bashsim: worker polling %s (%d slot(s), cache %q)\n", coordinator, slots, dir)
	if err := dist.RunWorker(ctx, dist.WorkerOptions{
		Coordinator:  coordinator,
		Slots:        slots,
		Secret:       secret,
		Poll:         poll,
		Kinds:        kinds,
		CacheDir:     dir,
		AdvertBudget: advertBudget,
		PeerAddr:     peerAddr,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "bashsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bashsim: worker stopped: simulated %d cells, fetched %d from peers\n",
		experiments.Simulations(), experiments.Fetched())
}

// runCacheGC evicts unusable and aged cell-store entries and reports.
func runCacheGC(dir string, maxAge time.Duration) {
	st, err := cellstore.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: -cache-gc: %v\n", err)
		os.Exit(1)
	}
	res, err := st.GC(maxAge)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bashsim: -cache-gc: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("cell cache (%s): kept %d entries (%d bytes)\n", dir, res.Kept, res.KeptBytes)
	fmt.Printf("evicted %d (%d bytes): %d stale-format, %d older than %s, %d abandoned temp files\n",
		res.Removed(), res.RemovedBytes, res.RemovedStale, res.RemovedExpired, maxAge, res.RemovedTemp)
}

// singleRun simulates one ad-hoc configuration and prints the full metric
// set: throughput, latency distribution, utilization, broadcast mix, and
// the per-kind traffic breakdown.
func singleRun(protoName string, nodes int, bandwidth, bcost float64, wlName string, think int64, ops uint64) {
	protos := map[string]core.Protocol{
		"snooping":   core.Snooping,
		"directory":  core.Directory,
		"bash":       core.BASH,
		"bash-pred":  core.BashPredictive,
		"bash-bcast": core.BashAlwaysBroadcast,
		"bash-ucast": core.BashAlwaysUnicast,
	}
	p, ok := protos[strings.ToLower(protoName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "bashsim: unknown protocol %q\n", protoName)
		os.Exit(2)
	}
	sys := core.NewSystem(core.Config{
		Protocol:         p,
		Nodes:            nodes,
		BandwidthMBs:     bandwidth,
		BroadcastCost:    bcost,
		WatchdogInterval: 2_000_000_000,
	})
	var wl core.Workload
	if strings.EqualFold(wlName, "locking") {
		lk := workload.NewLocking(128*nodes, 0)
		if think > 0 {
			lk.ThinkTime = sim.Time(think)
		}
		for i, a := range lk.WarmBlocks() {
			sys.PreheatOwned(a, network.NodeID(i%nodes), uint64(i)+1)
		}
		wl = lk
	} else {
		w := workload.ByName(wlName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bashsim: unknown workload %q\n", wlName)
			os.Exit(2)
		}
		for i, a := range w.WarmBlocks() {
			sys.PreheatOwned(a, network.NodeID(i%nodes), uint64(i)+1)
		}
		wl = w
	}
	sys.AttachWorkload(func(network.NodeID) core.Workload { return wl })
	warm := ops / 4
	m := sys.Measure(warm, ops)
	st := sys.CacheStats()
	h := sys.LatencyHistogram()

	fmt.Printf("protocol      %s (%d processors, %.0f MB/s, %gx broadcast cost, %s)\n",
		p, nodes, bandwidth, bcost, wlName)
	fmt.Printf("throughput    %.5f ops/ns over %d ops (%d ns simulated)\n", m.Throughput, m.Ops, m.Elapsed)
	fmt.Printf("miss latency  mean %.0f ns, p50 %.0f, p95 %.0f, max %.0f\n",
		m.AvgMissLatency, h.Percentile(0.5), h.Percentile(0.95), h.Max())
	fmt.Printf("utilization   %.1f%% inbound-link average\n", 100*m.Utilization)
	fmt.Printf("request mix   %.1f%% broadcast, %.1f%% unicast (%d reissues)\n",
		100*m.BroadcastFraction, 100*(1-m.BroadcastFraction), st.Reissues)
	fmt.Printf("misses        %d sharing, %d memory, %d upgrades, %d writebacks\n",
		st.SharingMisses, st.MemoryMisses, st.Upgrades, st.Writebacks)
	if st.Predicted > 0 {
		fmt.Printf("prediction    %d predicted, %d first-instance hits (%.0f%%)\n",
			st.Predicted, st.PredictedHits, 100*float64(st.PredictedHits)/float64(st.Predicted))
	}
	fmt.Printf("bash recovery %d retries, %d nacks\n", m.Retries, m.Nacks)
	fmt.Printf("traffic       %.0f B/op (%.0f control)\n", m.BytesPerOp, m.ControlBytesPerOp)
	fmt.Print(sys.Traffic())
}
