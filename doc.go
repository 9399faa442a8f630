// Package bashsim is a from-scratch Go reproduction of "Bandwidth Adaptive
// Snooping" (Milo M. K. Martin, Daniel J. Sorin, Mark D. Hill, David A.
// Wood — HPCA 2002): an execution-driven memory-system simulator with three
// MOSI cache coherence protocols (broadcast Snooping, a GS320-style
// Directory protocol, and BASH, the Bandwidth Adaptive Snooping Hybrid), the
// per-processor bandwidth adaptive mechanism, the paper's workloads, and a
// harness that regenerates every table and figure of its evaluation.
//
// This package is the public facade: it re-exports the system construction
// API from internal/core, the workload generators, the experiment runners,
// the random protocol tester, and the sharded run-orchestration layer.
// ExperimentIDs lists the reproducible artifacts; `cmd/bashsim -list` does
// the same from the command line.
//
// Four layers make large evaluations fast and exactly reproducible:
//
//   - The event kernel (Kernel, internal/sim) fires events in (time,
//     schedule-order) order from two tiers: a time wheel of 1,024
//     per-instant buckets for events due within 1,024 ns, where schedule
//     and pop are O(1), and a 4-ary heap for the rare later event. It
//     makes zero allocations per Schedule/Step in steady state and has
//     Reset for reuse across runs. Identical runs replay exactly. The
//     interconnect keeps the event count low: an ordered message to k
//     nodes costs k+2 events (the stamp, one arrival seizing every
//     target's inbound channel in node order, and one handoff per target)
//     and delivers in exactly the order one arrival per target would.
//   - The run orchestrator (ParallelMap/ParallelEach, RunnerOptions;
//     internal/runner) fans fleets of independent simulations out across a
//     bounded worker pool and folds results in job order, so serial and
//     parallel execution produce byte-identical artifacts. It captures
//     per-job panics with config context, honors context cancellation and
//     timeouts, reports progress, and shards seeds deterministically
//     (ShardSeeds). The experiment harness additionally memoizes identical
//     (protocol, bandwidth, seed) cells shared across figures, so each
//     distinct cell is simulated once per process.
//   - The pooled simulation lifecycle (SystemPool, System.Reset) reuses
//     whole Systems across runs instead of rebuilding them per cell, and a
//     persistent content-addressed cell store replays finished cells across
//     process invocations. Both are exact: a leased System is re-seeded to
//     byte-identical behaviour, and a stored cell is keyed by a hash of its
//     complete configuration.
//   - The distributed sweep backend (Backend, DistCoordinator,
//     RunDistWorker; internal/dist) fans the same cells across worker
//     processes and machines through a lease-based job protocol, folding
//     results from the shared cell store in job order — so a fleet of
//     machines produces the same bytes one goroutine would.
//   - The zero-allocation hot path: a warmed, pooled System executes
//     operations with zero steady-state heap allocations. Protocol packets
//     are reference-counted and recycled through the System's shared
//     Recycler; network messages and scheduling tasks free-list inside the
//     interconnect; line, transaction and directory-entry records drain
//     back on invalidation, completion and Reset; and every per-event
//     closure is a bound-once function or a free-listed kernel Task.
//     Allocation-budget tests pin 0 allocs/op per protocol at 4, 16 and 64
//     nodes, and determinism tests diff recycled against fresh-allocation
//     runs (Config.NoRecycle) byte for byte.
//
// # The pooled simulation lifecycle
//
// Every structure in the simulation stack can be returned to its
// just-constructed state in place: the kernel, network channels and masks,
// the cache arrays, the coherence controllers (lines, directory tables,
// retry buffers, transition-coverage counts), the checker, the predictor
// and the adaptive units. System.Reset(cfg) runs that pass and re-applies
// cfg's per-run parameters; SystemPool buckets idle Systems by structural
// configuration and leases them through Reset.
//
// Reuse is structural-config-safe: a System may be re-seeded for any config
// with the same protocol, node count, cache geometry, retry buffer, and
// predictor/checker/watchdog presence. Everything else — endpoint
// bandwidth, broadcast cost, workload seed, jitter, adaptive threshold /
// interval / counter width, watchdog interval — is per-run state that Reset
// re-applies, which covers every cell of a bandwidth sweep. Reset returns
// an error (leaving the System untouched) for structurally incompatible
// configs; Pool.Get transparently builds a fresh System instead.
//
// The warm set is per-run state too. Config.Preheat lists the blocks a run
// starts with, block i Modified at node i % Nodes (what a PreheatOwned
// loop installs), and NewSystem and Reset install it and checkpoint. From
// then on the line tables, directory tables and cache arrays log the
// checkpoint value of each record and set the run first touches. A Reset
// whose Preheat repeats the installed list replays that log instead of
// clearing and installing again, so a sweep that runs one workload across
// bandwidths or broadcast costs pays per lease for the blocks each run
// touched, not for the thousands it preheats. Either way a leased System
// equals a fresh one built with the same Config. The System compares
// Preheat against its own reused copy of the installed list, so callers
// may share or change their lists; the experiments share one list per
// workload shape across every cell.
//
// A System also owns its Processors: AttachWorkload builds one per node
// the first time and rebinds and re-seeds the same records after that. A
// warm lease, attach and measure allocate only the workload generator and
// its per-node cursors.
//
// # The allocation lifecycle contract
//
// Who may hold what, after the free lists are in play:
//
//   - A Packet's reference count equals its pending deliveries plus
//     retained uses. The Env send helpers set it at send time; core.Node
//     releases one reference per delivery after both controllers return.
//     Controllers that park a packet past their handler (deferred foreign
//     instances, MemWB waiting lists, delayed directory applies) retain
//     and later release it. Double release panics descriptively.
//   - A *network.Message is valid only for the duration of the
//     DeliverOrdered/DeliverUnordered call (with network.Config.Recycle,
//     as core sets it); handlers copy what they need.
//   - line records recycle on release (Invalid, no txn, no deferrals), txn
//     records at transaction completion, pended queues when the blocking
//     writeback retires, deferral and waiting lists when their work
//     replays or their record dies, directory entries and everything
//     still live at System.Reset — which drains records into the free
//     lists rather than freeing them, so pooled reuse keeps the warmed
//     capacity. Records a run left in flight come back too: the network
//     lists every task and Message it handed out, and the Recycler every
//     packet and directory-apply task, and once the kernel and the
//     controllers are reset Network.Reset and Recycler.Reclaim return all
//     of them at once. A packet parked at several nodes has no single
//     owner to release it; Reclaim takes it back once, with the rest.
//   - Config.NoRecycle disables all of it (fresh allocation everywhere,
//     reference counting still checked) for byte-for-byte comparison runs;
//     results are identical either way.
//
// # The persistent cell store
//
// With ExperimentOptions.CacheDir set (the bashsim CLI defaults it to
// .cache/, -no-cache disables), every simulated cell's Metrics is persisted
// under <dir>/<hh>/<sha256(key)>.cell, where the key string encodes a format
// version plus every field of the cell's configuration, and <hh> is the
// hash's first two hex digits. Each file is one fixed binary entry — magic,
// entry format version, the full key, then the Metrics as an 88-byte
// little-endian record — written atomically (temp + rename); a missing,
// corrupt, stale-version or colliding entry is treated as a miss and
// re-simulated, never as an error. Entries of the earlier gob format
// (<hash>.gob) never hit and are removed by -cache-gc. Re-running an
// unchanged experiment therefore costs zero simulations, and an interrupted
// `bashsim -exp all -scale full` resumes where it stopped. bashtest persists
// tester trial Reports the same way. Bumping a key's format version
// (cellFormat in internal/experiments, reportFormat in internal/tester)
// orphans stale entries wholesale.
//
// # Distributed sweeps
//
// With ExperimentOptions.Backend set, sweep cells become serializable jobs
// (RunnerJob: an executor kind, a content-address key, a gob spec) executed
// by whatever implements Backend. NewLocalBackend routes them through the
// in-process pool; NewDistCoordinator fans them across worker processes
// started with RunDistWorker — `bashsim -serve ADDR` and `bashsim -worker
// URL` from the command line. The coordinator leases a batch of up to
// DistOptions.LeaseBatch jobs per worker slot (grants shrink to the pending
// jobs' fair share across live workers near queue exhaustion, so a sweep's
// tail rebalances instead of queueing behind one straggler); workers
// heartbeat every held lease while simulating and stream each result back
// the moment it completes, with the reply refilling their batch — a
// saturated worker needs one lease round-trip per sweep. An expired lease
// (worker crashed, hung, or partitioned) requeues that job — and only that
// job; streamed results stay completed — for another worker, a bounded
// number of times. Worker-side panics surface coordinator-side as
// *RunnerPanicError with the job's label and the remote stack, exactly like
// in-process pool panics.
//
// The protocol runs over one transport, the binary framed wire: one
// persistent TCP connection per worker (upgraded via POST /dist/wire),
// every slot's actions multiplexed over it as CRC-checked frames whose
// payloads compress against a per-connection dictionary — no per-action
// connection setup, no JSON/base64 envelope. Dropped connections redial
// with capped exponential backoff plus jitter, and leases lost in the gap
// reassign through the normal TTL machinery. Serve the coordinator with
// its Serve method and /dist/status reports socket-level byte and frame
// counters. HTTP otherwise carries only the operator surfaces: GET
// /dist/status and POST /dist/submit.
//
// DistOptions.Secret (the -dist-secret flag, on both roles) authenticates
// the protocol: every wire connection must open with a HELLO frame
// carrying the shared secret's SHA-256 digest, and every HTTP request must
// carry the secret in the X-Bashsim-Secret header (both compared in
// constant time). Mismatches are rejected — a terminal auth-flagged ERROR
// frame, or 401 — and a rejected worker exits with a descriptive
// *dist.AuthError instead of retrying. DistOptions.CoExecute (the
// -co-execute flag, default one slot per CPU on the CLI) runs that many
// in-process worker slots on the coordinator for the duration of every
// batch, connected over an in-memory pipe to the same frame dispatcher —
// same wire protocol, auth included — so a lone coordinator makes progress
// with no external workers; register executors first
// (RegisterDistExecutors), exactly as a worker process would.
//
// The peer cell exchange makes the content-addressed store fleet-wide. A
// worker started with DistWorkerOptions.PeerAddr (requires CacheDir)
// serves its cell store to other workers over the framed wire — the same
// shared-secret handshake, then FETCH/CELL only — names that address in
// its HELLO, and advertises compact Bloom-filter indicators over its store
// keys (paced and sized against DistWorkerOptions.AdvertBudget, deltas
// preferred over full re-sends), built from the entries' file names, which
// are the keys' SHA-256 digests the filter hashes: a rebuild reads no entry
// and keeps no per-entry state, and a corrupt entry stays advertised until
// the lookup that finds it evicts it. A worker without PeerAddr advertises
// nothing, since nobody could fetch what it claims. The coordinator tables
// indicators per worker, each entry living exactly as long as the wire
// connection that advertised it, and marks each granted job with a
// likely-holder hint plus up to two advertised holders' peer addresses,
// freshest advert first. Adverts are the only way the fleet learns where a
// cell lives: no worker is assigned keys, and a worker never pushes a cell
// to a peer.
//
// Before simulating a hinted cell, a worker resolves it direct →
// coordinator store → simulate: it fetches from a holder's peer listener,
// else from the coordinator's own store (DistOptions.CacheDir; the
// coordinator never asks another worker), else simulates — and installs a
// fetched raw entry only after the same fail-closed header checks as a
// local store read. Indicator false positives and departed holders degrade
// tier by tier, never to a wrong result; a cold worker joining a published
// sweep simulates nothing (the e2e tests assert exactly zero). DistStats
// and /dist/status report advert, direct-fetch, coordinator-fetch, served,
// false-positive, and fallback counters.
//
// Three properties make the fleet exact and restartable:
//
//   - Determinism: every cell is a pure function of its spec, and results
//     fold in job order, so the TSV is byte-identical at any fleet size,
//     worker death included (the test suite kills a worker mid-sweep and
//     diffs the bytes).
//   - Worker independence: workers publish finished cells into the
//     shared content-addressed store, so it never matters who simulated
//     what; cells already in the coordinator's memo or store are served
//     locally and never dispatched.
//   - Resume: killing anything mid-sweep loses only in-flight cells. A
//     re-run serves published cells from the store and simulates just the
//     remainder — zero re-simulation of anything published, even with no
//     workers left.
//
// Coordinator and workers must run the same binary: cache keys embed the
// binary fingerprint, so mismatched builds never exchange stale results
// (they simply miss). The protocol (binary frames carrying gob payloads)
// trusts its network unless a shared secret is configured — run it on a
// private cluster or set one.
//
// # Service mode
//
// `bashsim -serve ADDR` without `-exp` starts the coordinator as a
// long-lived multi-tenant sweep service (SweepService, internal/svc)
// instead of running one sweep and exiting. The service stays up with an
// empty queue; separate processes submit named sweeps with `bashsim
// -submit URL -exp fig1 -scale quick [-priority N]` (one JSON POST to
// /dist/submit, which operators may also send themselves), and
// each accepted sweep gets an id, a queue position, and a result URL.
// Sweeps run highest-priority-first (FIFO within a priority) over the one
// shared worker fleet, up to ServeOptions.MaxActive at a time — a running
// sweep's remaining cells and a newly submitted higher-priority sweep's
// cells compete per lease grant, so priorities take effect without
// killing anything. The HTTP surface: GET /sweeps and /sweeps/{id} serve
// JSON lifecycle records, GET /sweeps/{id}/result.tsv serves bytes
// identical to what `bashsim -exp` would have written, GET / is a
// no-JavaScript live status page (progress bars via meta-refresh), and
// /dist/* remains the worker protocol. Only /dist/* requires the shared
// secret; the read-only surface is open.
//
// SIGINT or SIGTERM drains rather than kills: the service stops accepting
// submissions and granting jobs, leased batches finish or expire through
// the normal TTL machinery (nothing is lost or double-counted), queued
// sweeps are canceled, and the final status snapshot persists to the
// -dist-status file. `bashsim -status URL` prints an aligned table of the
// same snapshot for a quick look from the terminal.
//
// # Campaigns
//
// `bashsim -campaign` (Campaign, internal/campaign) runs the paper's
// full-scale figure set — dense log-spaced bandwidth grids, scaling to
// 256 nodes, every workload at both broadcast costs, all three protocols
// — as one long-running, resumable campaign over whatever backend the
// harness is given: the in-process pool, a dist fleet, or the sweep
// service's shared fleet (Priority tags its cells at the lease queue).
// Instead of a fixed seed count, each cell's seeds escalate (×1.5 per
// round, from the base seed list up to -max-seeds) until the panel
// metric's coefficient of variation drops under -cov-target (default the
// paper's 1%) — noisy contended cells earn more seeds, quiet ones stop
// early — and the rendered figures draw one-standard-deviation error bars
// exactly where CoV exceeds 1%, the paper's reporting rule. Progress
// checkpoints atomically to -campaign-state after every completed round:
// a killed campaign re-run with the identical command replays finished
// panels byte for byte from the checkpoint, refolds unfinished cells from
// the content-addressed cell store, and simulates only never-run
// (cell, seed) points (the e2e test and the CI smoke assert the strong
// form: interrupted + resumed simulation counts sum exactly to an
// uninterrupted run's). The checkpoint embeds a hash of the grid
// definition, knobs, seed sequence, scale, and binary fingerprint, so
// resuming under any other configuration is refused with the remedy
// spelled out. From code: NewCampaign(CampaignOptions) with
// DefaultCampaignGrid or a custom CampaignGrid, then Run; RegisterMetrics
// exposes live per-panel convergence gauges
// (bashsim_campaign_panel_cov_max and friends) on a MetricsRegistry.
// RunSimulationCells is the underlying exported cell funnel.
//
// # Observability
//
// MetricsRegistry (internal/obs) is a dependency-free metrics subsystem:
// Counter, Gauge and Histogram instruments backed by atomics (cheap
// enough for simulation hot paths), plus read-through CounterFunc /
// GaugeFunc / Collect registrations that sample existing counters only at
// scrape time — the instrumented layers (dist, cellstore, runner,
// experiments) keep their own plain atomics and pay nothing when no one
// is scraping. Expose emits the Prometheus text exposition format with
// families sorted, labels escaped, and histogram buckets cumulative; GET
// /metrics on a sweep service serves it. The bashsim_* families cover the
// coordinator's lease and job counters, the wire transports' byte/frame
// counters per direction and per connection, the peer cell exchange
// (adverts, direct and coordinator fetches, served/false-positive), the
// cell store (hits, misses, writes, evictions), the run orchestrator (jobs
// in flight, captured panics), and per-sweep progress gauges
// (bashsim_sweep_done/bashsim_sweep_total labeled by sweep id and
// experiment). Scrapes are allocation-bounded and race-clean against
// concurrent updates; the exposition format is pinned by escaping,
// cumulativity and golden-file tests.
//
// Cell-store hygiene: `bashsim -cache-gc` evicts entries whose on-disk
// format is stale or whose age exceeds -cache-max-age (CellStoreGC from
// code), and a per-experiment hit/miss manifest (LoadCellStoreManifest) is
// persisted alongside the store and printed after runs.
//
// Quick start:
//
//	lk := bashsim.NewLockingWorkload(2048, 0)
//	sys := bashsim.NewSystem(bashsim.Config{
//		Protocol:     bashsim.BASH,
//		Nodes:        16,
//		BandwidthMBs: 1600,
//		Preheat:      lk.WarmBlocks(), // block i Modified at node i%16
//	})
//	sys.AttachWorkload(func(bashsim.NodeID) bashsim.Workload { return lk })
//	m := sys.Measure(1000, 5000)
//	fmt.Println(m)
package bashsim
