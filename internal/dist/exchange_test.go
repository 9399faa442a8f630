package dist

// Tests for the peer cell exchange: the Bloom indicator itself, the
// coordinator's advert table and budget adaptation, holder addresses on
// grants, fetches from the coordinator's store, the worker's direct →
// coordinator store → simulate chain, and indicator lifetime (bound to
// the advertising connection, which must name a peer address). Where a
// store is needed the tests use real cellstore directories — the
// exchange's fail-closed verification is exactly the header check these
// produce.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cellstore"
	"repro/internal/dist/wire"
)

// --- indicator ----------------------------------------------------------

// digestsOf returns the digests of keys, which is what a filter is built
// from.
func digestsOf(keys ...string) []cellstore.Digest {
	ds := make([]cellstore.Digest, len(keys))
	for i, k := range keys {
		ds[i] = cellstore.KeyDigest(k)
	}
	return ds
}

// claims reports whether f may hold key.
func claims(f *cellFilter, key string) bool { return f.contains(cellstore.KeyDigest(key)) }

// claimed reports whether some indicator other than requester's claims key.
func claimed(x *exchange, requester, key string) bool {
	return len(x.holders(requester, cellstore.KeyDigest(key))) > 0
}

func TestFilterMembership(t *testing.T) {
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("cell-key-%04d", i)
	}
	f := buildFilter(digestsOf(keys...), defaultBitsPerKey)
	for _, k := range keys {
		if !claims(f, k) {
			t.Fatalf("filter lost its own key %q (Bloom filters must not false-negative)", k)
		}
	}
	// False positives exist but must be rare at the default density.
	fp := 0
	for i := 0; i < 2000; i++ {
		if claims(f, fmt.Sprintf("absent-key-%04d", i)) {
			fp++
		}
	}
	if fp > 100 { // 5%; the target at 12 bits/key is ~0.5%
		t.Errorf("false-positive rate %d/2000 is far above the design point", fp)
	}
	var nilFilter *cellFilter
	if claims(nilFilter, "anything") {
		t.Error("nil filter claimed membership")
	}
	if claims(buildFilter(nil, defaultBitsPerKey), "anything") {
		t.Error("empty filter claimed membership")
	}
}

func TestFilterDelta(t *testing.T) {
	keys := []string{"a", "b", "c"}
	old := buildFilter(digestsOf(keys...), defaultBitsPerKey)
	grown := old.clone()
	grown.add(cellstore.KeyDigest("d"))
	grown.add(cellstore.KeyDigest("e"))
	if !grown.sameShape(old) {
		t.Fatal("clone+add changed filter shape")
	}
	applied := old.clone()
	applied.applyDelta(grown.xor(old))
	if !applied.equal(grown) {
		t.Fatal("applying the XOR delta did not reconstruct the grown filter")
	}
}

func TestBudgetAdaptation(t *testing.T) {
	// A tight budget halves bits-per-key until a full send fits (or the
	// floor is hit); an unlimited budget keeps full density.
	if bpk := budgetBitsPerKey(100_000, 0); bpk != defaultBitsPerKey {
		t.Errorf("unlimited budget: bpk = %d, want %d", bpk, defaultBitsPerKey)
	}
	full := budgetBitsPerKey(100_000, 1<<30)
	if full != defaultBitsPerKey {
		t.Errorf("huge budget: bpk = %d, want %d", full, defaultBitsPerKey)
	}
	tight := budgetBitsPerKey(100_000, 32<<10)
	if tight >= full {
		t.Errorf("tight budget did not shrink the filter: bpk = %d", tight)
	}
	if tight < minBitsPerKey {
		t.Errorf("budget adaptation went below the floor: bpk = %d", tight)
	}
	// Pacing: sending sentBytes against budget B defers at least
	// sentBytes/B seconds.
	if ms := advertDelayMillis(8192, 4096); ms != 2000 {
		t.Errorf("advertDelayMillis(8192, 4096) = %d, want 2000", ms)
	}
	if ms := advertDelayMillis(100, 0); ms != 0 {
		t.Errorf("unlimited budget delayed %dms", ms)
	}
}

// --- advert table -------------------------------------------------------

func TestNoteAdvertFullDeltaAndGaps(t *testing.T) {
	x := newExchange("")
	f := buildFilter(digestsOf("k1", "k2"), defaultBitsPerKey)
	conn := &wireConn{worker: "w", peer: "10.0.0.7:9102"}

	// A connection whose HELLO named no peer address cannot advertise:
	// nobody could fetch what it claims.
	if x.noteAdvert(advertRequest{Worker: "w", Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits}, 10, &wireConn{worker: "w"}) {
		t.Fatal("full advert from a connection without a peer address was applied")
	}
	if claimed(x, "other", "k1") {
		t.Fatal("an unserved advert hinted its keys")
	}

	// A delta with no prior full must be refused.
	if x.noteAdvert(advertRequest{Worker: "w", Gen: 1, M: f.m, K: f.k, Bits: f.bits}, 10, conn) {
		t.Fatal("delta without a prior full filter was accepted")
	}
	if !x.noteAdvert(advertRequest{Worker: "w", Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits}, 10, conn) {
		t.Fatal("full advert refused")
	}
	if hs := x.holders("other", cellstore.KeyDigest("k1")); len(hs) != 1 || hs[0] != conn.peer {
		t.Fatalf("holders of an advertised key = %v, want [%s]", hs, conn.peer)
	}
	if claimed(x, "w", "k1") {
		t.Fatal("a worker's own indicator satisfied its hint (it would fetch from itself)")
	}

	// A gen-successor, same-shape delta on the owning connection applies.
	grown := f.clone()
	grown.add(cellstore.KeyDigest("k3"))
	if !x.noteAdvert(advertRequest{Worker: "w", Gen: 2, M: f.m, K: f.k, Bits: grown.xor(f)}, 10, conn) {
		t.Fatal("successor delta refused")
	}
	if !claimed(x, "other", "k3") {
		t.Fatal("delta-advertised key not reported held")
	}

	// A delta from a connection that does not own the entry is refused, and
	// so is a generation gap.
	if x.noteAdvert(advertRequest{Worker: "w", Gen: 3, M: f.m, K: f.k, Bits: grown.xor(f)}, 10, &wireConn{worker: "w", peer: conn.peer}) {
		t.Fatal("delta from a foreign connection accepted")
	}
	if x.noteAdvert(advertRequest{Worker: "w", Gen: 4, M: f.m, K: f.k, Bits: grown.bits}, 10, conn) {
		t.Fatal("generation gap accepted as a delta")
	}

	// Retiring a connection that does not own the entry leaves it (a
	// reconnect's fresh advert survives the old connection's teardown);
	// retiring the owner drops it, and it neither hints nor routes.
	x.forget("w", &wireConn{worker: "w"})
	if !claimed(x, "other", "k1") {
		t.Fatal("a foreign connection's retirement dropped the indicator")
	}
	x.forget("w", conn)
	if claimed(x, "other", "k1") {
		t.Fatal("retired connection's indicator satisfied a hint")
	}
	if hs := x.holders("other", cellstore.KeyDigest("k1")); len(hs) != 0 {
		t.Fatalf("retired connection's indicator routed: holders = %v", hs)
	}

	if got := x.adverts.Load(); got != 6 {
		t.Errorf("adverts counter = %d, want 6", got)
	}
	if got := x.advertBytes.Load(); got != 60 {
		t.Errorf("advertBytes counter = %d, want 60", got)
	}
}

func TestHoldersFreshestFirst(t *testing.T) {
	x := newExchange("")
	f := buildFilter(digestsOf("k"), defaultBitsPerKey)
	for i, w := range []string{"old", "mid", "new"} {
		x.noteAdvert(advertRequest{Worker: w, Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits}, 1, &wireConn{worker: w, peer: w + ":9102"})
		x.mu.Lock()
		// Stamp explicit recency (noteAdvert uses wall-clock now).
		x.table[w].when = time.Now().Add(time.Duration(i) * time.Second)
		x.mu.Unlock()
	}
	hs := x.holders("requester", cellstore.KeyDigest("k"))
	if len(hs) != 3 || hs[0] != "new:9102" || hs[2] != "old:9102" {
		t.Fatalf("holders = %v, want [new:9102 mid:9102 old:9102]", hs)
	}
	if hs := x.holders("new", cellstore.KeyDigest("k")); len(hs) != 2 || hs[0] != "mid:9102" {
		t.Fatalf("holders excluding requester = %v, want [mid:9102 old:9102]", hs)
	}
}

// --- fetch routing ------------------------------------------------------

type cellPayload struct {
	Name string
	X    float64
}

// AppendCell and DecodeCell give cellPayload a store record: X's bits,
// then Name.
func (p cellPayload) AppendCell(dst []byte) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.X))
	return append(dst, p.Name...), nil
}

func (p *cellPayload) DecodeCell(src []byte) error {
	if len(src) < 8 {
		return errors.New("short cellPayload record")
	}
	*p = cellPayload{X: math.Float64frombits(binary.LittleEndian.Uint64(src)), Name: string(src[8:])}
	return nil
}

// storeWith creates a cell store in a temp dir holding the given keys.
func storeWith(t testing.TB, keys ...string) (string, *cellstore.Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := cellstore.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	for i, k := range keys {
		if err := st.Put(k, cellPayload{Name: k, X: float64(i)}); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	return dir, st
}

func TestFetchServedFromCoordinatorStore(t *testing.T) {
	dir, _ := storeWith(t, "held-key")
	coord := NewCoordinator(CoordinatorOptions{CacheDir: dir})

	resp := coord.fetchRPC("held-key")
	if !resp.Found {
		t.Fatal("coordinator store did not serve the fetch")
	}
	if err := cellstore.VerifyRaw("held-key", resp.Raw); err != nil {
		t.Fatalf("served bytes fail verification: %v", err)
	}
	var got cellPayload
	if err := cellstore.DecodeRaw(resp.Raw, "held-key", &got); err != nil || got.Name != "held-key" {
		t.Fatalf("decode served cell: %+v, %v", got, err)
	}

	// Hints on grants come from the same store.
	jobs := []leasedJob{{Key: "held-key"}, {Key: "nobody-has-this"}}
	coord.annotateHints("cold", jobs)
	if !jobs[0].Held || jobs[1].Held {
		t.Fatalf("hints = %v/%v, want true/false", jobs[0].Held, jobs[1].Held)
	}

	// A miss for an unheld key counts as a false positive.
	if resp := coord.fetchRPC("nobody-has-this"); resp.Found {
		t.Fatal("fetch of absent key found something")
	}
	st := coord.Stats()
	if st.Fetches != 2 || st.FetchServed != 1 || st.FetchFalsePos != 1 {
		t.Errorf("counters = %d fetches / %d served / %d missed, want 2/1/1", st.Fetches, st.FetchServed, st.FetchFalsePos)
	}
}

// TestFetchFalsePositiveFallsThrough: an indicator claiming everything
// (all bits set) sends a worker to a holder whose store is empty. The
// direct fetch comes back not-found, so does the coordinator's (empty)
// store, and the worker is told to simulate — a false positive counted
// once, at the coordinator, with nothing credited to either fetch path.
func TestFetchFalsePositiveFallsThrough(t *testing.T) {
	holder, err := startPeerServer("127.0.0.1:0", "", cellstore.For(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	url := serveWire(t, coord)

	f := buildFilter(digestsOf("x"), defaultBitsPerKey)
	for i := range f.bits {
		f.bits[i] = 0xFF
	}
	braggart := &wireConn{worker: "braggart", peer: holder.Addr()}
	coord.advertRPC(advertRequest{Worker: "braggart", Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits}, len(f.bits), braggart)
	jobs := []leasedJob{{Key: "never-simulated"}}
	coord.annotateHints("cold", jobs)
	if !jobs[0].Held || len(jobs[0].Holders) != 1 || jobs[0].Holders[0] != holder.Addr() {
		t.Fatalf("hint = %+v, want held with the braggart's address %s", jobs[0], holder.Addr())
	}

	tr, err := newTransport(WorkerOptions{Coordinator: url, Name: "cold"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	w := &worker{name: "cold", tr: tr, hints: map[string]jobHint{}}
	w.noteHints(jobs)
	if raw, ok := w.fetchKey("never-simulated"); ok {
		t.Fatalf("an empty-store holder produced a cell (%d bytes)", len(raw))
	}
	if st := coord.Stats(); st.Fetches != 1 || st.FetchFalsePos != 1 {
		t.Errorf("coordinator counters = %d fetches / %d false positives, want 1 / 1", st.Fetches, st.FetchFalsePos)
	}
	if d, fb := w.fetchDirect.Load(), w.fetchFallback.Load(); d != 0 || fb != 0 {
		t.Errorf("worker counted %d direct / %d fallback fetches, want 0 / 0", d, fb)
	}
}

// TestAdvertWithoutPeerAddressIsNotApplied: a raw wire client whose HELLO
// names no peer address sends a well-formed full ADVERT. It is received
// (and counted) but never applied: no grant may send a requester to an
// address nobody gave.
func TestAdvertWithoutPeerAddressIsNotApplied(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	_, rd, wr := pipeClient(t, coord, "silent")
	f := buildFilter(digestsOf("k"), defaultBitsPerKey)
	if err := wr.WriteFrame(wire.FrameAdvert, 0, 0, appendAdvert(nil, advertRequest{Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits})); err != nil {
		t.Fatal(err)
	}
	// Frames on one connection are served in order: once the LEASE is
	// answered, the ADVERT before it has been handled.
	if err := wr.WriteFrame(wire.FrameLease, 0, 1, appendLeaseRequest(nil, leaseRequest{Worker: "silent"})); err != nil {
		t.Fatal(err)
	}
	if h, _, err := rd.ReadFrame(); err != nil || h.Type != wire.FrameGrant {
		t.Fatalf("lease reply: %s, %v", wire.TypeName(h.Type), err)
	}
	if got := coord.Stats().Adverts; got != 1 {
		t.Errorf("Adverts = %d, want 1 (received)", got)
	}
	jobs := []leasedJob{{Key: "k"}}
	coord.annotateHints("other", jobs)
	if jobs[0].Held || len(jobs[0].Holders) != 0 {
		t.Errorf("an advert from a connection without a peer address hinted %+v", jobs[0])
	}
}

// TestAdvertEndpointRejectsMalformedGeometry: an ADVERT frame whose filter
// geometry does not hold together is a protocol violation — the sender gets
// an ERROR frame, the connection closes, and nothing is counted.
func TestAdvertEndpointRejectsMalformedGeometry(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{})
	bad := []advertRequest{
		{Worker: "w", Gen: 1, Full: true, M: 128, K: 4, Bits: make([]byte, 3)},  // geometry mismatch
		{Worker: "w", Gen: 1, Full: true, M: 64, K: 0, Bits: make([]byte, 8)},   // no hashes
		{Worker: "w", Gen: 1, Full: true, M: 64, K: 200, Bits: make([]byte, 8)}, // absurd hashes
	}
	for i, req := range bad {
		_, rd, wr := pipeClient(t, coord, "w")
		if err := wr.WriteFrame(wire.FrameAdvert, 0, 0, appendAdvert(nil, req)); err != nil {
			t.Fatalf("malformed advert %d: write: %v", i, err)
		}
		if h, _, err := rd.ReadFrame(); err != nil || h.Type != wire.FrameError {
			t.Errorf("malformed advert %d: got %s (err %v), want ERROR", i, wire.TypeName(h.Type), err)
		}
	}
	if got := coord.Stats().Adverts; got != 0 {
		t.Errorf("malformed adverts were counted: %d", got)
	}
}

// TestIdleHolderStaysAdvertised: a holder re-advertises only when its
// store changes, so a connected holder that sits idle for many lease TTLs
// must keep hinting, its address must keep riding on grants, and its next
// delta must still apply. Its indicator goes only when its connection does.
func TestIdleHolderStaysAdvertised(t *testing.T) {
	dir, st := storeWith(t, "a")
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 100 * time.Millisecond})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{
		Coordinator: url, Name: "holder", Poll: 5 * time.Millisecond,
		Kinds:    []string{"holder.no-jobs"},
		CacheDir: dir, AdvertInterval: 10 * time.Millisecond,
		PeerAddr: "127.0.0.1:0",
	})
	grant := func(key string) leasedJob {
		jobs := []leasedJob{{Key: key}}
		coord.annotateHints("other", jobs)
		return jobs[0]
	}
	held := func(key string) bool { return grant(key).Held }
	waitHeld := func(key string, want bool) bool {
		deadline := time.Now().Add(3 * time.Second)
		for held(key) != want {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(5 * time.Millisecond)
		}
		return true
	}

	if !waitHeld("a", true) {
		t.Fatal("holder's advert never hinted its key")
	}
	time.Sleep(500 * time.Millisecond) // five lease TTLs with an unchanged store
	if !held("a") {
		t.Error("a connected idle holder's indicator stopped hinting")
	}
	if g := grant("a"); len(g.Holders) != 1 {
		t.Errorf("a connected idle holder's address left the grants: %+v", g)
	} else if raw, ok := peerFetch(ctx, g.Holders[0], "other", "", "a"); !ok || cellstore.VerifyRaw("a", raw) != nil {
		t.Errorf("a connected idle holder did not serve its cell at its granted address %s", g.Holders[0])
	}
	if err := st.Put("b", cellPayload{Name: "b"}); err != nil {
		t.Fatalf("put: %v", err)
	}
	if !waitHeld("b", true) {
		t.Errorf("the holder's delta after an idle spell never applied (adverts received: %d)", coord.Stats().Adverts)
	}

	cancel()
	if !waitHeld("a", false) {
		t.Error("a departed holder's indicator still hints")
	}
}
