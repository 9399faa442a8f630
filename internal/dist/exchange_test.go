package dist

// Tests for the peer cell exchange: the Bloom indicator itself, the
// coordinator's advert table and budget adaptation, fetch routing from the
// coordinator's store, relay routing through an advertised holder's wire
// connection, the false-positive fallback, and indicator lifetime (bound
// to the advertising connection). Where a store is needed the
// tests use real cellstore directories — the exchange's fail-closed
// verification is exactly the header check these produce.

import (
	"context"
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
	conn := &wireConn{worker: "w"}

	// A delta with no prior full must be refused.
	if x.noteAdvert(advertRequest{Worker: "w", Gen: 1, M: f.m, K: f.k, Bits: f.bits}, 10, conn) {
		t.Fatal("delta without a prior full filter was accepted")
	}
	if !x.noteAdvert(advertRequest{Worker: "w", Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits}, 10, conn) {
		t.Fatal("full advert refused")
	}
	if !claimed(x, "other", "k1") {
		t.Fatal("advertised key not reported held")
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
	if x.noteAdvert(advertRequest{Worker: "w", Gen: 3, M: f.m, K: f.k, Bits: grown.xor(f)}, 10, &wireConn{worker: "w"}) {
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

	if got := x.adverts.Load(); got != 5 {
		t.Errorf("adverts counter = %d, want 5", got)
	}
	if got := x.advertBytes.Load(); got != 50 {
		t.Errorf("advertBytes counter = %d, want 50", got)
	}
}

func TestHoldersFreshestFirst(t *testing.T) {
	x := newExchange("")
	f := buildFilter(digestsOf("k"), defaultBitsPerKey)
	for i, w := range []string{"old", "mid", "new"} {
		x.noteAdvert(advertRequest{Worker: w, Gen: 1, Full: true, M: f.m, K: f.k, Bits: f.bits}, 1, nil)
		x.mu.Lock()
		// Stamp explicit recency (noteAdvert uses wall-clock now).
		x.table[w].when = time.Now().Add(time.Duration(i) * time.Second)
		x.mu.Unlock()
	}
	hs := x.holders("requester", cellstore.KeyDigest("k"))
	if len(hs) != 3 || hs[0] != "new" || hs[2] != "old" {
		t.Fatalf("holders = %v, want [new mid old]", hs)
	}
	if hs := x.holders("new", cellstore.KeyDigest("k")); len(hs) != 2 || hs[0] != "mid" {
		t.Fatalf("holders excluding requester = %v, want [mid old]", hs)
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

	resp := coord.fetchRPC(context.Background(), fetchRequest{Worker: "cold", Key: "held-key"})
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
	if resp := coord.fetchRPC(context.Background(), fetchRequest{Worker: "cold", Key: "nobody-has-this"}); resp.Found {
		t.Fatal("fetch of absent key found something")
	}
	st := coord.Stats()
	if st.Fetches != 2 || st.FetchServed != 1 || st.FetchFalsePos != 1 {
		t.Errorf("counters = %d fetches / %d served / %d missed, want 2/1/1", st.Fetches, st.FetchServed, st.FetchFalsePos)
	}
}

// TestFetchRelayedThroughHolder: the coordinator has no store; a worker
// with the cell in its store connects over the binary wire and advertises.
// A fetch from a third party must be relayed down the holder's connection,
// answered from its store, verified, and returned.
func TestFetchRelayedThroughHolder(t *testing.T) {
	dir, _ := storeWith(t, "relayed-key")
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()

	// The holder only holds: its kind matches no job, so it polls idle,
	// advertises its store, and serves relays.
	go RunWorker(ctx, WorkerOptions{
		Coordinator: url, Name: "holder", Poll: 5 * time.Millisecond,
		Kinds:    []string{"holder.no-jobs"},
		CacheDir: dir, AdvertInterval: 10 * time.Millisecond,
	})

	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Adverts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never advertised")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := coord.fetchRPC(context.Background(), fetchRequest{Worker: "cold", Key: "relayed-key"})
	if !resp.Found {
		t.Fatal("fetch was not relayed to the advertised holder")
	}
	var got cellPayload
	if err := cellstore.DecodeRaw(resp.Raw, "relayed-key", &got); err != nil || got.Name != "relayed-key" {
		t.Fatalf("decode relayed cell: %+v, %v", got, err)
	}
	st := coord.Stats()
	if st.FetchRelayed != 1 {
		t.Errorf("FetchRelayed = %d, want 1", st.FetchRelayed)
	}
}

// TestFetchFalsePositiveFallsThrough: an indicator claiming everything (all
// bits set) routes a fetch to a holder whose store is empty; the relay
// comes back not-found and the requester is told to simulate.
func TestFetchFalsePositiveFallsThrough(t *testing.T) {
	emptyDir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 2 * time.Second})
	url := serveWire(t, coord)
	ctx, cancel := testContext(t)
	defer cancel()
	go RunWorker(ctx, WorkerOptions{
		Coordinator: url, Name: "braggart", Poll: 5 * time.Millisecond,
		Kinds:    []string{"holder.no-jobs"},
		CacheDir: emptyDir, AdvertInterval: 10 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Adverts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never advertised")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Overwrite the worker's honest (empty) indicator with an all-claiming
	// one — a phantom advertisement no connection owns.
	f := buildFilter(digestsOf("x"), defaultBitsPerKey)
	for i := range f.bits {
		f.bits[i] = 0xFF
	}
	coord.advertRPC(advertRequest{Worker: "braggart", Gen: 99, Full: true, M: f.m, K: f.k, Bits: f.bits}, len(f.bits), nil)

	resp := coord.fetchRPC(context.Background(), fetchRequest{Worker: "cold", Key: "never-simulated"})
	if resp.Found {
		t.Fatal("empty-store holder produced a cell")
	}
	if st := coord.Stats(); st.FetchFalsePos != 1 {
		t.Errorf("FetchFalsePos = %d, want 1", st.FetchFalsePos)
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
// must keep hinting and routing, and its next delta must still apply. Its
// indicator goes only when its connection does.
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
	})
	held := func(key string) bool {
		jobs := []leasedJob{{Key: key}}
		coord.annotateHints("other", jobs)
		return jobs[0].Held
	}
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
	if resp := coord.fetchRPC(context.Background(), fetchRequest{Worker: "other", Key: "a"}); !resp.Found {
		t.Error("a connected idle holder's cell was not relayed")
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
