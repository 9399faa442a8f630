// Package dist is the distributed sweep backend: a coordinator/worker
// subsystem that fans simulation cells across processes and machines. It
// implements runner.Backend over a lease-based job protocol (specs and
// results are opaque gob payloads), so any sweep the in-process goroutine
// pool can run, a fleet of worker processes can run with byte-identical
// output.
//
// Workers speak one transport: the binary framed wire (internal/dist/wire).
// A worker holds one persistent connection, upgraded from POST /dist/wire,
// and every slot's request/reply pairs are multiplexed over it by stream
// id, payloads encoded by codec.go and compressed against a per-connection
// dictionary. Frame types are the protocol's actions:
//
//	HELLO     -> WELCOME     worker name, secret digest, peer address; opens the connection
//	LEASE     -> GRANT       a batch of jobs + lease TTL; an empty grant means no work
//	HEARTBEAT -> BEAT-ACK    extends the jobs' leases; replies with sweep progress
//	RESULT    -> RESULT-ACK  completes (or fails) one job; the reply may refill the batch
//	ADVERT                   records the worker's cell-store indicator (no reply)
//	FETCH     -> CELL        raw cell entry bytes from any holder, or not-found
//	SUBMIT    -> SWEEP       queues one named sweep on a sweep-service coordinator
//
// A protocol violation gets an ERROR frame and the connection closes.
// Co-execution runs the same frames over an in-memory net.Pipe into the
// same dispatcher. Dropped connections redial with capped exponential
// backoff plus jitter, and leases lost in the gap reassign through the
// lease-TTL machinery like any other worker death.
//
// HTTP remains for the upgrade and the operator surfaces (see
// Coordinator.Handler): GET /dist/status reports batch progress, live
// workers, and lifetime counters, and POST /dist/submit takes the same
// submission as a SUBMIT frame as JSON. A coordinator that is not running
// as a sweep service answers a submission with an in-band error rather
// than queueing anything.
//
// A worker leases a batch of up to CoordinatorOptions.LeaseBatch jobs per
// slot (adaptive: grants shrink to ceil(pending/liveWorkers) near queue
// exhaustion, so the tail of a sweep spreads across the fleet instead of
// piling onto one straggler), heartbeats every in-flight job while
// executing, and streams each job's gob-encoded result back the moment it
// completes — one slow cell never holds the rest of its batch's results
// hostage. A result post doubles as a lease request: its reply can carry
// refill jobs, so a saturated worker needs no further LEASE round-trips
// for the life of a sweep. Each job's lease is individual: a
// lease that expires — worker crashed, hung, or partitioned — puts that job
// (and only that job; results already streamed back stay completed) back in
// the queue for another worker, bounded by MaxLeaseExpiries so a job cannot
// ping-pong forever between dying workers. Worker-side panics are captured
// with their stack and surface on the coordinator as *runner.PanicError,
// mirroring the in-process pool. Results are folded in job-index order once
// the batch drains, so which worker produced which cell never influences
// output.
//
// Determinism and worker-independence lean on the content-addressed cell
// store (internal/cellstore): every job carries its store Key, workers
// publish finished cells into the shared store, and every cell is a pure
// function of its spec — so a re-run after any interruption serves
// already-published cells from the store instead of re-simulating, and it
// does not matter which worker (or how many) executed what.
//
// The peer cell exchange (protocol v4) makes that store fleet-wide without
// shared disk. Workers with a store periodically advertise a Bloom-filter
// indicator over their keys (ADVERT frames, deltas preferred, paced against
// WorkerOptions.AdvertBudget); the coordinator keeps a per-worker indicator
// table, each entry living as long as the connection that advertised it,
// and marks each granted job with a likely-holder hint. Before simulating a
// hinted cell a worker issues a FETCH; the coordinator serves it from its
// own store (CacheDir) or relays the FETCH down an advertised holder's live
// wire connection, streaming the raw entry bytes back as a CELL frame. The
// requester verifies the entry — envelope format and exact key, which
// embeds the binary fingerprint — before installing and using it
// (cellstore.DecodeRaw, fail closed), so an indicator false positive, a
// stale advert, or a hostile peer degrades to the pre-exchange behavior
// (simulate locally), never to a wrong result.
//
// The direct data path takes the coordinator off the bulk-data path.
// Adverts remain the only answer to "who holds this key": no worker is
// assigned keys, and nothing is pushed to a worker that did not ask for it.
// Workers may serve their store to peers directly: WorkerOptions.PeerAddr
// starts a listener speaking the same framed wire (HELLO-authenticated,
// FETCH→CELL only), and the address is advertised in the HELLO frame and
// every lease request. Grants then carry each hinted job's holder peer
// addresses (Holders, freshest advertisement first). A worker resolves a
// hinted key direct→relay→simulate: dial a holder and FETCH, fall back to
// the coordinator relay on connect failure, timeout, or verification
// failure, and finally simulate locally — the TSV is byte-identical on
// every path, the paths differ only in bandwidth. With holders serving
// peers, fetch_relayed stays ~0.
//
// Coordinator and workers are assumed to run the same binary (cache keys
// embed the binary fingerprint, so mismatched builds waste work but never
// corrupt results). The protocol optionally authenticates with a shared
// secret (CoordinatorOptions.Secret / WorkerOptions.Secret, compared in
// constant time): wire connections open with a HELLO frame carrying its
// SHA-256 digest and get a terminal auth-flagged ERROR frame on a
// mismatch, and the worker exits with a descriptive *AuthError instead of
// retrying; HTTP requests to /dist/status and /dist/submit carry it in the
// X-Bashsim-Secret header and get 401 on a mismatch. Without a secret the
// protocol trusts its network; run it on a private cluster.
package dist

import "time"

// Wire messages, encoded by codec.go. Specs and results are gob payloads
// produced by the registered executors and their callers.

// secretHeader carries the optional shared secret on HTTP requests.
const secretHeader = "X-Bashsim-Secret"

// leaseRequest asks for a batch of jobs executable by any of the worker's
// kinds. Max, when positive, caps the batch below the coordinator's
// configured LeaseBatch (a worker with bounded queue memory); zero accepts
// the coordinator's default.
type leaseRequest struct {
	Worker string
	Kinds  []string
	Max    int
	// Peer is the worker's peer listener address, registered with the
	// coordinator for direct fetch routing ("" when the worker serves no
	// peers).
	Peer string
}

// leasedJob is one granted job inside a lease or refill reply. Held is the
// coordinator's likely-holder hint: true when the job's Key matched the
// coordinator's own store or some other worker's advertised indicator, so
// the worker should try a FETCH before simulating; false means the fleet is
// cold for this key and the worker skips the round-trip (bandwidth-aware
// cache selection — never fetch what nobody claims to hold).
type leasedJob struct {
	JobID int64
	Kind  string
	Key   string
	Label string
	Spec  []byte
	Held  bool
	// Holders lists peer listener addresses of advertised holders (freshest
	// advertisement first, excluding the leased worker) for a Held job: the
	// worker tries a direct FETCH against each before falling back to the
	// coordinator relay. Empty when no holder serves peers.
	Holders []string
}

// leaseResponse grants a batch of jobs (each with its own lease, all
// expiring LeaseMillis from the grant). An empty grant means no work is
// available right now. Done/Total report sweep-wide progress so worker
// logs can show fleet state. A result's acknowledgment is the same shape:
// its Jobs are the refill, when the worker asked for one and pending work
// matched.
type leaseResponse struct {
	Jobs        []leasedJob
	LeaseMillis int64
	Done        int
	Total       int
}

// heartbeatRequest extends the leases of the worker's in-flight jobs —
// every job it holds, queued or executing.
type heartbeatRequest struct {
	Worker string
	JobIDs []int64
}

// heartbeatResponse tells the worker whether a batch is active (an idle
// worker may poll more slowly when not) and how far the sweep has
// progressed, so worker logs show fleet-wide progress between their own
// completions.
type heartbeatResponse struct {
	Active bool
	Done   int
	Total  int
}

// resultRequest completes one leased job. Exactly one of Result, Error, or
// Panic is meaningful: Result carries the serialized value on success,
// Error a worker-side failure message, and Panic (with Stack) a captured
// executor panic. Refill, when positive, asks the coordinator to grant up
// to that many replacement jobs (matching Kinds) in the reply — a result
// post doubles as a lease request, keeping a saturated worker off the
// LEASE round-trip entirely.
type resultRequest struct {
	Worker string
	JobID  int64
	Result []byte
	Error  string
	Panic  string
	Stack  []byte
	Kinds  []string
	Refill int
	// Fetch-path delta counters since the worker's last report: cells
	// fetched directly from a peer, and direct attempts that fell back to
	// the coordinator relay. The coordinator folds them into its exchange
	// totals so /dist/status sees traffic that never touched its socket.
	// Advisory: deltas lost to a result retry undercount, never
	// double-count.
	FetchDirect   uint64
	FetchFallback uint64
}

// advertRequest is one worker's cell-store indicator advertisement: a
// Bloom filter over its store keys (see indicator.go). Gen increments per
// send from that worker; a delta (Full=false) carries the XOR of the new
// and previous bit arrays and applies only when geometry matches and Gen is
// exactly the successor of the last applied generation on the same
// connection. Every connection opens with a full send and frames on one
// connection cannot reorder, so nothing else ever arrives from a correct
// worker.
type advertRequest struct {
	Worker string
	Gen    uint64
	Full   bool
	M      uint32
	K      uint8
	Bits   []byte
}

// fetchRequest asks the coordinator for one raw cell entry by store key.
// Worker names the requester so routing never bounces a fetch back to it.
type fetchRequest struct {
	Worker string
	Key    string
}

// fetchResponse carries the raw entry bytes when some holder produced
// them. Found=false — the indicator's false positive, a departed holder, a
// relay timeout — tells the requester to simulate locally: the exchange
// degrades to the pre-exchange behavior, never to a wrong result.
type fetchResponse struct {
	Found bool
	Raw   []byte
}

// StatusSnapshot reports batch progress and the coordinator's lifetime
// counters, for dashboards, the CLI's aggregated progress line, the sweep
// service's status page, and the CI smoke's per-commit artifact (lease,
// reassignment, and byte counts). It is the decoded GET /dist/status
// payload; FetchStatus retrieves one from a running coordinator. With
// concurrent sweeps active, Done/Total aggregate across every batch in
// flight.
type StatusSnapshot struct {
	Active     bool   `json:"active"`
	Draining   bool   `json:"draining,omitempty"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Workers    int    `json:"workers"`
	Leases     uint64 `json:"leases"`
	Refills    uint64 `json:"refills"`
	Dispatched uint64 `json:"dispatched"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Reassigned uint64 `json:"reassigned"`
	// Socket-level byte totals across every connection Serve accepted
	// (wire and HTTP alike), and wire frame totals across every connection
	// (co-execution's in-memory pipe included); the CI smoke reads these.
	BytesIn   uint64 `json:"bytes_in"`
	BytesOut  uint64 `json:"bytes_out"`
	FramesIn  uint64 `json:"frames_in"`
	FramesOut uint64 `json:"frames_out"`
	// Peer cell exchange counters: indicator adverts received (and their
	// on-wire payload bytes — the smoke's budget assertion reads this),
	// fetches requested, fetches served from the coordinator's own store,
	// fetches relayed from an advertised holder, and fetches that found
	// nothing anywhere (the indicator false-positive counter: the requester
	// fell back to simulating).
	Adverts       uint64 `json:"adverts"`
	AdvertBytes   uint64 `json:"advert_bytes"`
	Fetches       uint64 `json:"fetches"`
	FetchServed   uint64 `json:"fetch_served"`
	FetchRelayed  uint64 `json:"fetch_relayed"`
	FetchFalsePos uint64 `json:"fetch_false_pos"`
	// Direct data path counters (worker-reported deltas folded in via
	// result posts): cells fetched worker-to-worker without touching the
	// coordinator, and direct attempts that fell back to the relay.
	FetchDirect   uint64 `json:"fetch_direct"`
	FetchFallback uint64 `json:"fetch_fallback"`
	// WireConns details each live wire connection, followed by a bounded
	// history of recently closed ones (Closed=true): the retention cap and
	// age window in conn.go keep a week-long service's status payload and
	// status-page table from growing with every reconnect.
	WireConns []WireConnStatus `json:"wire_conns,omitempty"`
}

// WireConnStatus is one wire connection's counters in /dist/status.
// Co-execution's connection appears as worker "coordinator" with remote
// "pipe".
type WireConnStatus struct {
	Worker    string `json:"worker"`
	Remote    string `json:"remote"`
	FramesIn  uint64 `json:"frames_in"`
	FramesOut uint64 `json:"frames_out"`
	BytesIn   uint64 `json:"bytes_in"`
	BytesOut  uint64 `json:"bytes_out"`
	Closed    bool   `json:"closed,omitempty"`
}

// Stats are the coordinator's lifetime counters.
type Stats struct {
	// Leases counts non-empty lease grants and Refills jobs granted
	// piggybacked on result replies; Dispatched counts every job handed out
	// either way (re-dispatch after an expiry counts again). With batching,
	// Leases stays far below Dispatched: the CI smoke asserts the ratio.
	// Completed counts successful results, Failed jobs that ended in an
	// error or exhausted their lease budget, and Reassigned leases that
	// expired and were requeued.
	Leases, Refills, Dispatched, Completed, Failed, Reassigned uint64
	// BytesIn/BytesOut count socket-level traffic across every connection
	// accepted by Coordinator.Serve — HTTP framing and wire frames measured
	// at the same place. Zero when the handler is mounted on a server that
	// bypasses Serve (httptest); co-execution's in-memory pipe never
	// touches a socket, so its traffic is not counted here.
	BytesIn, BytesOut uint64
	// FramesIn/FramesOut count wire frames across all connections, live and
	// closed (handshake frames included), co-execution's pipe among them.
	FramesIn, FramesOut uint64
	// Peer cell exchange: Adverts counts indicator advertisements received
	// (AdvertBytes their on-wire payload bytes), Fetches every FETCH
	// request, FetchServed those answered from the coordinator's own store,
	// FetchRelayed those answered by relaying to an advertised holder, and
	// FetchFalsePos those that found nothing anywhere — the indicator's
	// false positives (plus departed holders), each of which degraded to a
	// local simulation on the requester.
	Adverts, AdvertBytes, Fetches, FetchServed, FetchRelayed, FetchFalsePos uint64
	// Direct data path: FetchDirect counts cells fetched worker-to-worker
	// (reported by workers as deltas on result posts — this traffic never
	// touches the coordinator's socket), and FetchFallback direct attempts
	// that degraded to the coordinator relay.
	FetchDirect, FetchFallback uint64
	// PeerPuts always reads 0: workers no longer push cells to each other.
	// It is kept only because the repository benchmark (perfbench/fleet.go)
	// reads it, and goes when that reader does.
	PeerPuts uint64
}

// workerTTL is how long after its last contact a worker still counts as
// alive in status reports, expressed in lease TTLs.
const workerTTLFactor = 3

// defaults for CoordinatorOptions.
const (
	defaultLeaseTTL         = 15 * time.Second
	defaultMaxLeaseExpiries = 3
)
