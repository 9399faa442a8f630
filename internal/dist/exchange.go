package dist

// Coordinator side of the peer cell exchange: the per-worker indicator
// table fed by ADVERT frames, the likely-holder hints piggybacked on
// grants, and the FETCH routing that serves raw cell entries from the
// coordinator's own store or relays the request down an advertised
// holder's live wire connection. Everything here is advisory
// bookkeeping around the content-addressed store: a wrong hint or a stale
// indicator costs a round-trip or a redundant simulation, never a wrong
// result, because the requester verifies every fetched entry against its
// fingerprinted key before use (cellstore.DecodeRaw, fail closed).

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cellstore"
)

// relayTimeout bounds one coordinator->holder relay round-trip; past it the
// coordinator tries the next holder (or reports not-found and lets the
// requester simulate). Generous against a worker mid-GC, tight enough that
// a hung holder cannot stall a fetch behind it for long.
const relayTimeout = 3 * time.Second

// indicatorEntry is one worker's last applied indicator. It lives exactly
// as long as the wire connection that advertised it: a worker re-advertises
// only when its store changes, so an idle holder's entry must not age out
// while it is still connected, and a departed holder's entry must go with
// its connection.
type indicatorEntry struct {
	filter *cellFilter
	gen    uint64
	when   time.Time // last applied advert: orders holders freshest first
	conn   *wireConn // the advertising connection; its retirement drops the entry
}

// exchange is the coordinator's indicator table plus exchange counters.
type exchange struct {
	store *cellstore.Store // coordinator's own cell store; nil = none

	mu    sync.Mutex
	table map[string]*indicatorEntry // worker -> indicator

	adverts, advertBytes                   atomic.Uint64
	fetches, served, relayed, fetchMissing atomic.Uint64
	// Worker-reported direct-path totals, folded in from the delta counters
	// on result posts (the traffic itself bypasses the coordinator).
	direct, fallback atomic.Uint64
}

func newExchange(cacheDir string) *exchange {
	return &exchange{store: cellstore.For(cacheDir), table: map[string]*indicatorEntry{}}
}

// noteAdvert applies one advertisement received on conn and reports
// whether it applied. wireBytes is the on-wire payload size
// (post-compression), which is what the advert-budget accounting reports.
// A full filter replaces the worker's entry and binds it to conn. A delta
// applies only on the connection that owns the entry, with the same
// geometry, and with exactly the successor generation; frames on one
// connection are ordered and every connection opens with a full send, so
// a refused delta means a confused or hostile sender and is dropped.
func (x *exchange) noteAdvert(req advertRequest, wireBytes int, conn *wireConn) bool {
	x.adverts.Add(1)
	x.advertBytes.Add(uint64(wireBytes))
	f := &cellFilter{m: req.M, k: req.K, bits: req.Bits}
	x.mu.Lock()
	defer x.mu.Unlock()
	if req.Full {
		x.table[req.Worker] = &indicatorEntry{filter: f.clone(), gen: req.Gen, when: time.Now(), conn: conn}
		return true
	}
	prev := x.table[req.Worker]
	if prev == nil || prev.conn != conn || req.Gen != prev.gen+1 || !prev.filter.sameShape(f) {
		return false
	}
	prev.filter.applyDelta(req.Bits)
	prev.gen = req.Gen
	prev.when = time.Now()
	return true
}

// forget drops worker's indicator when conn still owns it. A reconnect's
// full advert on a newer connection may land before the old connection is
// retired; that entry stays.
func (x *exchange) forget(worker string, conn *wireConn) {
	x.mu.Lock()
	if e := x.table[worker]; e != nil && e.conn == conn {
		delete(x.table, worker)
	}
	x.mu.Unlock()
}

// holders lists workers (excluding the requester) whose indicators claim
// key, most recently advertised first.
func (x *exchange) holders(requester, key string) []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	type cand struct {
		name string
		when time.Time
	}
	var cands []cand
	for name, e := range x.table {
		if name != requester && e.filter.contains(key) {
			cands = append(cands, cand{name, e.when})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int { return b.when.Compare(a.when) })
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// likelyHeld is the grant-hint predicate: the coordinator's own store has
// the key, or some other worker's indicator claims it. A worker
// whose hint is false skips the fetch round-trip entirely (nobody claims
// the cell, so fetching could only waste the advert budget's savings); a
// false positive here costs one failed fetch before simulating.
func (x *exchange) likelyHeld(requester, key string) bool {
	if x.store != nil && x.store.Contains(key) {
		return true
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for name, e := range x.table {
		if name != requester && e.filter.contains(key) {
			return true
		}
	}
	return false
}

// advertRPC records one worker's ADVERT frame, received on conn. Adverts
// count as worker contact, like every other protocol action.
func (c *Coordinator) advertRPC(req advertRequest, wireBytes int, conn *wireConn) {
	c.mu.Lock()
	c.registerWorkerLocked(req.Worker, "", time.Now())
	c.mu.Unlock()
	c.exch.noteAdvert(req, wireBytes, conn)
}

// maxGrantAddrs caps how many holder peer addresses ride on one granted
// job: enough for a primary plus a backup, small enough that grants stay
// cheap even on a large fleet.
const maxGrantAddrs = 2

// annotateHints marks each granted job with the exchange's likely-holder
// verdict and, for held jobs, the peer addresses of the advertised holders
// that serve peers (freshest first) for the direct data path. The lookups
// run outside the coordinator mutex: Contains stats the store's filesystem
// and the indicator table has its own lock; c.mu is taken once, for the
// peer addresses.
func (c *Coordinator) annotateHints(worker string, jobs []leasedJob) {
	holders := make([][]string, len(jobs))
	for i := range jobs {
		jobs[i].Held = c.exch.likelyHeld(worker, jobs[i].Key)
		if jobs[i].Held {
			holders[i] = c.exch.holders(worker, jobs[i].Key)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, hs := range holders {
		for _, h := range hs {
			if a := c.peerAddrs[h]; a != "" {
				jobs[i].Holders = append(jobs[i].Holders, a)
				if len(jobs[i].Holders) == maxGrantAddrs {
					break
				}
			}
		}
	}
}

// fetchRPC answers one FETCH: the coordinator's own store first, then each
// advertised holder in freshness order via a relay down its live wire
// connection. Relayed entries are verified (header + key, so a confused
// holder cannot poison anyone) and written through to the coordinator's
// store when it has one — the next cold worker asking for the same cell is
// served locally. A fetch that finds nothing counts as a false positive:
// the requester's hint said "held" but no holder produced the bytes, and
// the requester falls back to simulating.
func (c *Coordinator) fetchRPC(ctx context.Context, req fetchRequest) fetchResponse {
	x := c.exch
	x.fetches.Add(1)
	if x.store != nil {
		if raw, ok := x.store.GetRaw(req.Key); ok {
			x.served.Add(1)
			return fetchResponse{Found: true, Raw: raw}
		}
	}
	for _, holder := range x.holders(req.Worker, req.Key) {
		wc := c.wireConnFor(holder)
		if wc == nil {
			continue
		}
		raw, ok := c.relayFetch(ctx, wc, req.Key)
		if !ok || cellstore.VerifyRaw(req.Key, raw) != nil {
			continue
		}
		x.relayed.Add(1)
		if x.store != nil {
			x.store.PutRaw(req.Key, raw) // best-effort cache of the relay
		}
		return fetchResponse{Found: true, Raw: raw}
	}
	x.fetchMissing.Add(1)
	return fetchResponse{}
}

// wireConnFor returns some live wire connection belonging to worker (nil
// in a reconnect gap; the fetch then tries the next holder).
func (c *Coordinator) wireConnFor(worker string) *wireConn {
	c.wireMu.Lock()
	defer c.wireMu.Unlock()
	for wc := range c.wireConns {
		if wc.worker == worker {
			return wc
		}
	}
	return nil
}
