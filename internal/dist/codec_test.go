package dist

import (
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist/wire"
)

func TestCodecRoundTrips(t *testing.T) {
	digest := sha256.Sum256([]byte("secret"))

	t.Run("hello", func(t *testing.T) {
		b := appendHello(nil, "worker-7", digest[:], "")
		worker, got, peer, err := parseHello(b)
		if err != nil || worker != "worker-7" || !reflect.DeepEqual(got, digest[:]) || peer != "" {
			t.Fatalf("parseHello = %q, %x, %q, %v", worker, got, peer, err)
		}
		b = appendHello(nil, "worker-7", digest[:], "10.0.0.7:9102")
		worker, got, peer, err = parseHello(b)
		if err != nil || worker != "worker-7" || !reflect.DeepEqual(got, digest[:]) || peer != "10.0.0.7:9102" {
			t.Fatalf("parseHello with peer = %q, %x, %q, %v", worker, got, peer, err)
		}
	})

	t.Run("welcome", func(t *testing.T) {
		if err := parseWelcome(appendWelcome(nil)); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("lease request", func(t *testing.T) {
		want := leaseRequest{Worker: "w", Kinds: []string{"bashsim.cell", "other"}, Max: 4}
		got, err := parseLeaseRequest(appendLeaseRequest(nil, want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, %v; want %+v", got, err, want)
		}
	})

	t.Run("grant", func(t *testing.T) {
		want := leaseResponse{
			Jobs: []leasedJob{
				{JobID: 12, Kind: "bashsim.cell", Key: "abcd", Label: "cell 1", Spec: []byte{1, 2, 3}},
				{JobID: 13, Kind: "bashsim.cell", Key: "ef01", Label: "cell 2"},
			},
			LeaseMillis: 15000, Done: 3, Total: 15,
		}
		got, err := parseGrant(appendGrant(nil, want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, %v; want %+v", got, err, want)
		}
		// Empty grant ("no work right now") round-trips too.
		empty, err := parseGrant(appendGrant(nil, leaseResponse{Done: 15, Total: 15}))
		if err != nil || len(empty.Jobs) != 0 || empty.Done != 15 {
			t.Fatalf("empty grant: %+v, %v", empty, err)
		}
	})

	t.Run("heartbeat", func(t *testing.T) {
		wantReq := heartbeatRequest{Worker: "w", JobIDs: []int64{3, 9, 27}}
		gotReq, err := parseHeartbeatRequest(appendHeartbeatRequest(nil, wantReq))
		if err != nil || !reflect.DeepEqual(gotReq, wantReq) {
			t.Fatalf("request: got %+v, %v", gotReq, err)
		}
		wantResp := heartbeatResponse{Active: true, Done: 7, Total: 15}
		gotResp, err := parseHeartbeatResponse(appendHeartbeatResponse(nil, wantResp))
		if err != nil || gotResp != wantResp {
			t.Fatalf("response: got %+v, %v", gotResp, err)
		}
	})

	t.Run("result request", func(t *testing.T) {
		want := resultRequest{
			Worker: "w", JobID: 44, Refill: 1, Kinds: []string{"bashsim.cell"},
			Result: []byte("gob bytes"),
		}
		got, err := parseResultRequest(appendResultRequest(nil, want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, %v; want %+v", got, err, want)
		}
		panicky := resultRequest{Worker: "w", JobID: 45, Panic: "boom", Stack: []byte("stack...")}
		got, err = parseResultRequest(appendResultRequest(nil, panicky))
		if err != nil || !reflect.DeepEqual(got, panicky) {
			t.Fatalf("panic result: got %+v, %v", got, err)
		}
		counted := resultRequest{
			Worker: "w", JobID: 46, Result: []byte("r"),
			FetchDirect: 3, FetchFallback: 1,
		}
		got, err = parseResultRequest(appendResultRequest(nil, counted))
		if err != nil || !reflect.DeepEqual(got, counted) {
			t.Fatalf("counted result: got %+v, %v", got, err)
		}
	})

	t.Run("grant held hint", func(t *testing.T) {
		want := leaseResponse{
			Jobs:        []leasedJob{{JobID: 1, Kind: "k", Key: "x", Held: true}, {JobID: 2, Kind: "k", Key: "y"}},
			LeaseMillis: 1000, Total: 2,
		}
		got, err := parseGrant(appendGrant(nil, want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, %v; want %+v", got, err, want)
		}
	})

	t.Run("grant peer addresses", func(t *testing.T) {
		want := leaseResponse{
			Jobs: []leasedJob{
				{JobID: 1, Kind: "k", Key: "x", Held: true,
					Holders: []string{"10.0.0.2:9102", "10.0.0.3:9102"}},
				{JobID: 2, Kind: "k", Key: "y"},
			},
			LeaseMillis: 1000, Total: 2,
		}
		got, err := parseGrant(appendGrant(nil, want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("got %+v, %v; want %+v", got, err, want)
		}
	})

	t.Run("advert", func(t *testing.T) {
		full := advertRequest{Worker: "w", Gen: 1, Full: true, M: 128, K: 5, Bits: make([]byte, 16)}
		full.Bits[3] = 0xA5
		got, err := parseAdvert(appendAdvert(nil, full))
		if err != nil || !reflect.DeepEqual(got, full) {
			t.Fatalf("full: got %+v, %v; want %+v", got, err, full)
		}
		delta := advertRequest{Worker: "w", Gen: 2, M: 128, K: 5, Bits: make([]byte, 16)}
		got, err = parseAdvert(appendAdvert(nil, delta))
		if err != nil || !reflect.DeepEqual(got, delta) {
			t.Fatalf("delta: got %+v, %v; want %+v", got, err, delta)
		}
	})

	t.Run("fetch request", func(t *testing.T) {
		got, err := parseFetchRequest(appendFetchRequest(nil, "abcdef0123456789"))
		if err != nil || got != "abcdef0123456789" {
			t.Fatalf("got %q, %v", got, err)
		}
	})

	t.Run("cell", func(t *testing.T) {
		found := fetchResponse{Found: true, Raw: []byte("cell entry bytes")}
		got, err := parseCell(appendCell(nil, found))
		if err != nil || !reflect.DeepEqual(got, found) {
			t.Fatalf("found: got %+v, %v", got, err)
		}
		miss, err := parseCell(appendCell(nil, fetchResponse{}))
		if err != nil || miss.Found || len(miss.Raw) != 0 {
			t.Fatalf("miss: got %+v, %v", miss, err)
		}
	})

}

// TestCodecRejectsMalformed: strict parsing — truncation, overrun lengths,
// and trailing bytes are all terminal errors.
func TestCodecRejectsMalformed(t *testing.T) {
	grant := appendGrant(nil, leaseResponse{
		Jobs:        []leasedJob{{JobID: 1, Kind: "k", Key: "x", Label: "l", Spec: []byte{9}}},
		LeaseMillis: 1000, Total: 1,
	})
	if _, err := parseGrant(grant[:len(grant)-2]); err == nil {
		t.Error("truncated grant parsed")
	}
	if _, err := parseGrant(append(grant, 0)); err == nil {
		t.Error("grant with trailing bytes parsed")
	}
	if _, _, _, err := parseHello([]byte{0xFF}); err == nil {
		t.Error("garbage hello parsed")
	}
	// A peer one protocol version behind fails at the handshake.
	old := appendHello(nil, "w", make([]byte, sha256.Size), "")
	old[0] = wire.Version - 1
	if _, _, _, err := parseHello(old); err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Errorf("hello from the previous protocol version: err = %v", err)
	}
	if _, err := parseLeaseRequest([]byte{1, 'w', 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Error("lease request with absurd kind count parsed")
	}

	advert := appendAdvert(nil, advertRequest{Worker: "w", Gen: 1, Full: true, M: 128, K: 4, Bits: make([]byte, 16)})
	if _, err := parseAdvert(advert[:len(advert)-3]); err == nil {
		t.Error("truncated advert parsed")
	}
	if _, err := parseAdvert(append(advert, 0)); err == nil {
		t.Error("advert with trailing bytes parsed")
	}
	// A filter claiming more bits than the wire bound must be rejected
	// before any allocation sized from it.
	huge := appendString(nil, "w")
	huge = appendUvarint(huge, 1)
	huge = appendBool(huge, true)
	huge = appendUvarint(huge, maxFilterBytes*8+1)
	huge = appendUvarint(huge, 4)
	huge = appendBytes(huge, nil)
	if _, err := parseAdvert(huge); err == nil {
		t.Error("advert with oversized filter claim parsed")
	}
	for _, k := range []uint64{0, maxFilterHashes + 1} {
		bad := appendString(nil, "w")
		bad = appendUvarint(bad, 1)
		bad = appendBool(bad, true)
		bad = appendUvarint(bad, 128)
		bad = appendUvarint(bad, k)
		bad = appendBytes(bad, make([]byte, 16))
		if _, err := parseAdvert(bad); err == nil {
			t.Errorf("advert with hash count %d parsed", k)
		}
	}
	// Bit array length must match the claimed geometry exactly.
	skewed := appendString(nil, "w")
	skewed = appendUvarint(skewed, 1)
	skewed = appendBool(skewed, true)
	skewed = appendUvarint(skewed, 128)
	skewed = appendUvarint(skewed, 4)
	skewed = appendBytes(skewed, make([]byte, 15))
	if _, err := parseAdvert(skewed); err == nil {
		t.Error("advert with geometry-mismatched bit array parsed")
	}
	// Booleans are strictly 0/1 on the wire.
	bogus := appendString(nil, "w")
	bogus = appendUvarint(bogus, 1)
	bogus = append(bogus, 2) // full flag = 2
	bogus = appendUvarint(bogus, 128)
	bogus = appendUvarint(bogus, 4)
	bogus = appendBytes(bogus, make([]byte, 16))
	if _, err := parseAdvert(bogus); err == nil {
		t.Error("advert with bogus bool parsed")
	}

	fetch := appendFetchRequest(nil, "k")
	if _, err := parseFetchRequest(fetch[:len(fetch)-1]); err == nil {
		t.Error("truncated fetch request parsed")
	}
	if _, err := parseFetchRequest(append(fetch, 0)); err == nil {
		t.Error("fetch request with trailing bytes parsed")
	}

	// A grant whose holder-address count exceeds the wire bound must be
	// rejected before any allocation sized from it.
	hogGrant := appendUvarint(nil, 1)                  // one job
	hogGrant = appendUvarint(hogGrant, 1)              // job id
	hogGrant = appendString(hogGrant, "k")             // kind
	hogGrant = appendString(hogGrant, "x")             // key
	hogGrant = appendString(hogGrant, "l")             // label
	hogGrant = appendBytes(hogGrant, nil)              // spec
	hogGrant = appendBool(hogGrant, false)             // held
	hogGrant = appendUvarint(hogGrant, maxWireAddrs+1) // holder count past the bound
	if _, err := parseGrant(hogGrant); err == nil {
		t.Error("grant with absurd holder count parsed")
	}

	cell := appendCell(nil, fetchResponse{Found: true, Raw: []byte("raw")})
	if _, err := parseCell(cell[:len(cell)-1]); err == nil {
		t.Error("truncated cell parsed")
	}
	if _, err := parseCell(append(cell, 0)); err == nil {
		t.Error("cell with trailing bytes parsed")
	}
	// A not-found reply carrying payload bytes is contradictory: reject it
	// rather than let a confused peer smuggle data past the found check.
	contradictory := appendBool(nil, false)
	contradictory = appendBytes(contradictory, []byte("smuggled"))
	if _, err := parseCell(contradictory); err == nil {
		t.Error("not-found cell with payload parsed")
	}
}

// FuzzCodecParsers: every payload parser must be total — no panics, no
// out-of-bounds — over arbitrary bytes.
func FuzzCodecParsers(f *testing.F) {
	f.Add(appendGrant(nil, leaseResponse{Jobs: []leasedJob{{JobID: 1, Kind: "k", Spec: []byte{1}}}, LeaseMillis: 5}))
	f.Add(appendGrant(nil, leaseResponse{Jobs: []leasedJob{{JobID: 1, Kind: "k", Key: "x", Held: true, Holders: []string{"h:1", "h:2"}}}, LeaseMillis: 5}))
	f.Add(appendResultRequest(nil, resultRequest{Worker: "w", JobID: 2, Result: []byte("r")}))
	f.Add(appendResultRequest(nil, resultRequest{Worker: "w", JobID: 2, Result: []byte("r"), FetchDirect: 1, FetchFallback: 2}))
	f.Add(appendHello(nil, "w", make([]byte, sha256.Size), "peer:9102"))
	f.Add(appendLeaseRequest(nil, leaseRequest{Worker: "w", Kinds: []string{"k"}, Max: 2}))
	f.Add(appendHeartbeatRequest(nil, heartbeatRequest{Worker: "w", JobIDs: []int64{1, 2}}))
	f.Add(appendAdvert(nil, advertRequest{Worker: "w", Gen: 1, Full: true, M: 64, K: 3, Bits: make([]byte, 8)}))
	f.Add(appendFetchRequest(nil, "k"))
	f.Add(appendCell(nil, fetchResponse{Found: true, Raw: []byte("raw entry")}))
	f.Add(appendHello(nil, "w", make([]byte, sha256.Size), ""))
	f.Add(appendGrant(nil, leaseResponse{Done: 15, Total: 15}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		parseHello(data)
		parseWelcome(data)
		parseLeaseRequest(data)
		parseGrant(data)
		parseHeartbeatRequest(data)
		parseHeartbeatResponse(data)
		parseResultRequest(data)
		parseAdvert(data)
		parseFetchRequest(data)
		parseCell(data)
	})
}

// FuzzPeerCodec: the peer-to-peer data-path parsers — everything a worker's
// peer listener or peer client decodes from a socket another worker wrote —
// must be total over arbitrary bytes. Narrower than FuzzCodecParsers so the
// fuzzer's whole budget lands on the frames a (possibly hostile) peer can
// actually send.
func FuzzPeerCodec(f *testing.F) {
	digest := sha256.Sum256([]byte("secret"))
	f.Add(appendHello(nil, "w", digest[:], "10.0.0.7:9102"))
	f.Add(appendFetchRequest(nil, "abcd"))
	f.Add(appendCell(nil, fetchResponse{Found: true, Raw: []byte("raw entry")}))
	f.Add(appendCell(nil, fetchResponse{}))
	f.Add(appendHello(nil, "w", digest[:], ""))
	f.Add(appendWelcome(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		parseHello(data)
		parseWelcome(data)
		parseFetchRequest(data)
		parseCell(data)
	})
}
