package dist

// Coordinator side of the peer cell exchange: the per-worker indicator
// table fed by ADVERT frames, the likely-holder hints and holder peer
// addresses piggybacked on grants, and the FETCH answers served from the
// coordinator's own store. Everything here is advisory bookkeeping around
// the content-addressed store: a wrong hint or a stale indicator costs a
// round-trip or a redundant simulation, never a wrong result, because the
// requester verifies every fetched entry against its fingerprinted key
// before use (cellstore.DecodeRaw, fail closed).

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cellstore"
)

// indicatorEntry is one worker's last applied indicator. It lives exactly
// as long as the wire connection that advertised it: a worker re-advertises
// only when its store changes, so an idle holder's entry must not age out
// while it is still connected, and a departed holder's entry must go with
// its connection. The entry's peer address is its connection's.
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

	adverts, advertBytes          atomic.Uint64
	fetches, served, fetchMissing atomic.Uint64
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
// Only a connection whose HELLO named a peer address may advertise: grants
// send requesters to that address, and a claim nobody can serve would
// only cost them a failed fetch. A full filter replaces the worker's entry
// and binds it to conn. A delta applies only on the connection that owns
// the entry, with the same geometry, and with exactly the successor
// generation; frames on one connection are ordered and every connection
// opens with a full send, so a refused delta means a confused or hostile
// sender and is dropped.
func (x *exchange) noteAdvert(req advertRequest, wireBytes int, conn *wireConn) bool {
	x.adverts.Add(1)
	x.advertBytes.Add(uint64(wireBytes))
	if conn == nil || conn.peer == "" {
		return false
	}
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

// holders lists the peer addresses of workers (excluding the requester)
// whose indicators claim the key with digest d, most recently advertised
// first.
func (x *exchange) holders(requester string, d cellstore.Digest) []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	var es []*indicatorEntry
	for name, e := range x.table {
		if name != requester && e.filter.contains(d) {
			es = append(es, e)
		}
	}
	slices.SortFunc(es, func(a, b *indicatorEntry) int { return b.when.Compare(a.when) })
	var out []string
	for _, e := range es {
		out = append(out, e.conn.peer)
	}
	return out
}

// advertRPC records one worker's ADVERT frame, received on conn. Adverts
// count as worker contact, like every other protocol action.
func (c *Coordinator) advertRPC(req advertRequest, wireBytes int, conn *wireConn) {
	c.noteWorker(req.Worker)
	c.exch.noteAdvert(req, wireBytes, conn)
}

// maxGrantAddrs caps how many holder peer addresses ride on one granted
// job: enough for a primary plus a backup, small enough that grants stay
// cheap even on a large fleet.
const maxGrantAddrs = 2

// annotateHints marks each granted job with the exchange's likely-holder
// verdict and the peer addresses of its advertised holders (freshest
// first) for the direct data path. A job is held when the coordinator's
// own store has the key or some other worker's indicator claims it. A
// worker whose hint is false skips the fetch round-trip entirely (nobody
// claims the cell, so fetching could only waste the advert budget's
// savings); a false positive costs one failed fetch before simulating.
// Each key is hashed once for the whole indicator table. The lookups run
// outside the coordinator mutex: Contains stats the store's filesystem and
// the indicator table has its own lock.
func (c *Coordinator) annotateHints(worker string, jobs []leasedJob) {
	for i := range jobs {
		hs := c.exch.holders(worker, cellstore.KeyDigest(jobs[i].Key))
		jobs[i].Held = len(hs) > 0 || c.exch.store != nil && c.exch.store.Contains(jobs[i].Key)
		jobs[i].Holders = hs[:min(len(hs), maxGrantAddrs)]
	}
}

// fetchRPC answers one FETCH from the coordinator's own store; it never
// asks another worker. A fetch the store cannot answer counts as a false
// positive: the requester's hint said "held", no direct holder produced
// the bytes, and the requester falls back to simulating.
func (c *Coordinator) fetchRPC(key string) fetchResponse {
	x := c.exch
	x.fetches.Add(1)
	if x.store != nil {
		if raw, ok := x.store.GetRaw(key); ok {
			x.served.Add(1)
			return fetchResponse{Found: true, Raw: raw}
		}
	}
	x.fetchMissing.Add(1)
	return fetchResponse{}
}
