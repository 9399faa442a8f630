package dist

// Binary codec for the wire protocol's message payloads: hand-rolled
// uvarint + length-prefixed fields instead of JSON, so gob specs and
// results pass through as raw bytes — no envelope, no base64. Encoders
// append into caller-provided buffers (wire.GetBuffer free list); parsers
// are strict and fail closed: any unknown shape, overrun length, or
// trailing garbage is a terminal connection error, never a guess.

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/dist/wire"
)

// wireProtoName is the HTTP Upgrade token that opens the wire transport
// on /dist/wire. The "/3" tracks wire.Version: a worker offering a token
// the coordinator does not speak gets a plain HTTP refusal (426) and fails
// with wire.ErrNotWire — mixed builds fail at the upgrade with a
// description instead of on a frame parse mid-sweep.
const wireProtoName = "bashsim-wire/4"

// Parse bounds: generous multiples of anything the protocol produces, tight
// enough that a malformed length fails immediately instead of allocating.
const (
	maxWireStr   = 1 << 20 // worker names, kinds, labels, error/panic text
	maxWireKinds = 1 << 10
	maxWireJobs  = 1 << 16
	maxWireSeeds = 1 << 12 // per-sweep seed-list override
	maxWireAddrs = 1 << 4  // holder peer addresses per granted job
)

// byteReader is a strict cursor over one message payload.
type byteReader struct {
	p   []byte
	off int
	err error
}

func (r *byteReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *byteReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		r.fail("dist: malformed %s varint at offset %d", what, r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) count(what string, max int) int {
	v := r.uvarint(what)
	if r.err == nil && v > uint64(max) {
		r.fail("dist: %s count %d exceeds bound %d", what, v, max)
		return 0
	}
	return int(v)
}

// bytes returns the next length-prefixed field, copied: wire.Reader reuses
// its payload buffer across frames, so anything retained must own its bytes.
func (r *byteReader) bytes(what string, max int) []byte {
	n := r.uvarint(what + " length")
	if r.err != nil {
		return nil
	}
	if n > uint64(max) || n > uint64(len(r.p)-r.off) {
		r.fail("dist: %s length %d overruns payload (%d bytes left, bound %d)", what, n, len(r.p)-r.off, max)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.p[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

func (r *byteReader) str(what string, max int) string {
	n := r.uvarint(what + " length")
	if r.err != nil {
		return ""
	}
	if n > uint64(max) || n > uint64(len(r.p)-r.off) {
		r.fail("dist: %s length %d overruns payload (%d bytes left, bound %d)", what, n, len(r.p)-r.off, max)
		return ""
	}
	s := string(r.p[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// bool reads a strict boolean: exactly 0 or 1, anything else fails (a
// sloppy "nonzero is true" would let corrupt payloads parse as valid).
func (r *byteReader) bool(what string) bool {
	v := r.uvarint(what)
	if r.err == nil && v > 1 {
		r.fail("dist: bogus %s value %d (want 0 or 1)", what, v)
		return false
	}
	return v == 1
}

// finish asserts the payload was consumed exactly.
func (r *byteReader) finish(msg string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.p) {
		return fmt.Errorf("dist: %s message: %d trailing bytes after payload", msg, len(r.p)-r.off)
	}
	return nil
}

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// --- HELLO / WELCOME / ERROR -------------------------------------------

// appendHello encodes the connection handshake: protocol version, worker
// name, the SHA-256 digest of the shared secret (the server compares
// digests in constant time; an empty secret digests the empty string), and
// the worker's peer listener address ("" when it serves no peers). The same
// handshake opens both coordinator connections and worker-to-worker peer
// connections.
func appendHello(b []byte, worker string, digest []byte, peer string) []byte {
	b = appendUvarint(b, wire.Version)
	b = appendString(b, worker)
	b = appendBytes(b, digest)
	return appendString(b, peer)
}

func parseHello(p []byte) (worker string, digest []byte, peer string, err error) {
	r := &byteReader{p: p}
	if v := r.uvarint("hello version"); r.err == nil && v != wire.Version {
		return "", nil, "", fmt.Errorf("dist: hello for protocol version %d (this build speaks %d)", v, wire.Version)
	}
	worker = r.str("worker name", maxWireStr)
	digest = r.bytes("secret digest", 64)
	peer = r.str("peer address", maxWireStr)
	return worker, digest, peer, r.finish("hello")
}

func appendWelcome(b []byte) []byte { return appendUvarint(b, wire.Version) }

func parseWelcome(p []byte) error {
	r := &byteReader{p: p}
	if v := r.uvarint("welcome version"); r.err == nil && v != wire.Version {
		return fmt.Errorf("dist: coordinator speaks protocol version %d (this build speaks %d)", v, wire.Version)
	}
	return r.finish("welcome")
}

// parseErrorFrame extracts the message of a FrameError payload (plain text).
func parseErrorFrame(p []byte) string { return string(p) }

// --- LEASE --------------------------------------------------------------

func appendLeaseRequest(b []byte, req leaseRequest) []byte {
	b = appendString(b, req.Worker)
	b = appendString(b, req.Peer)
	b = appendUvarint(b, uint64(req.Max))
	b = appendUvarint(b, uint64(len(req.Kinds)))
	for _, k := range req.Kinds {
		b = appendString(b, k)
	}
	return b
}

func parseLeaseRequest(p []byte) (leaseRequest, error) {
	r := &byteReader{p: p}
	var req leaseRequest
	req.Worker = r.str("worker name", maxWireStr)
	req.Peer = r.str("peer address", maxWireStr)
	req.Max = int(r.uvarint("lease max"))
	if n := r.count("kinds", maxWireKinds); r.err == nil && n > 0 {
		req.Kinds = make([]string, n)
		for i := range req.Kinds {
			req.Kinds[i] = r.str("kind", maxWireStr)
		}
	}
	return req, r.finish("lease request")
}

// --- GRANT (lease and refill replies share one shape) -------------------

// appendGrant encodes a leaseResponse (a GRANT or a RESULT-ACK).
func appendGrant(b []byte, resp leaseResponse) []byte {
	b = appendUvarint(b, uint64(resp.LeaseMillis))
	b = appendUvarint(b, uint64(resp.Done))
	b = appendUvarint(b, uint64(resp.Total))
	b = appendUvarint(b, uint64(len(resp.Jobs)))
	for _, j := range resp.Jobs {
		b = appendUvarint(b, uint64(j.JobID))
		b = appendString(b, j.Kind)
		b = appendString(b, j.Key)
		b = appendString(b, j.Label)
		b = appendBytes(b, j.Spec)
		b = appendBool(b, j.Held)
		b = appendUvarint(b, uint64(len(j.Holders)))
		for _, a := range j.Holders {
			b = appendString(b, a)
		}
	}
	return b
}

func parseGrant(p []byte) (leaseResponse, error) {
	r := &byteReader{p: p}
	var resp leaseResponse
	resp.LeaseMillis = int64(r.uvarint("lease millis"))
	resp.Done = int(r.uvarint("done"))
	resp.Total = int(r.uvarint("total"))
	if n := r.count("jobs", maxWireJobs); r.err == nil && n > 0 {
		resp.Jobs = make([]leasedJob, n)
		for i := range resp.Jobs {
			j := &resp.Jobs[i]
			id := r.uvarint("job id")
			if r.err == nil && id > math.MaxInt64 {
				r.fail("dist: job id %d overflows int64", id)
			}
			j.JobID = int64(id)
			j.Kind = r.str("job kind", maxWireStr)
			j.Key = r.str("job key", maxWireStr)
			j.Label = r.str("job label", maxWireStr)
			j.Spec = r.bytes("job spec", wire.MaxPayload)
			j.Held = r.bool("job held hint")
			if n := r.count("holder addresses", maxWireAddrs); r.err == nil && n > 0 {
				j.Holders = make([]string, n)
				for i := range j.Holders {
					j.Holders[i] = r.str("holder address", maxWireStr)
				}
			}
		}
	}
	return resp, r.finish("grant")
}

// --- HEARTBEAT ----------------------------------------------------------

func appendHeartbeatRequest(b []byte, req heartbeatRequest) []byte {
	b = appendString(b, req.Worker)
	b = appendUvarint(b, uint64(len(req.JobIDs)))
	for _, id := range req.JobIDs {
		b = appendUvarint(b, uint64(id))
	}
	return b
}

func parseHeartbeatRequest(p []byte) (heartbeatRequest, error) {
	r := &byteReader{p: p}
	var req heartbeatRequest
	req.Worker = r.str("worker name", maxWireStr)
	if n := r.count("job ids", maxWireJobs); r.err == nil && n > 0 {
		req.JobIDs = make([]int64, n)
		for i := range req.JobIDs {
			req.JobIDs[i] = int64(r.uvarint("job id"))
		}
	}
	return req, r.finish("heartbeat request")
}

func appendHeartbeatResponse(b []byte, resp heartbeatResponse) []byte {
	active := uint64(0)
	if resp.Active {
		active = 1
	}
	b = appendUvarint(b, active)
	b = appendUvarint(b, uint64(resp.Done))
	return appendUvarint(b, uint64(resp.Total))
}

func parseHeartbeatResponse(p []byte) (heartbeatResponse, error) {
	r := &byteReader{p: p}
	var resp heartbeatResponse
	resp.Active = r.uvarint("active") != 0
	resp.Done = int(r.uvarint("done"))
	resp.Total = int(r.uvarint("total"))
	return resp, r.finish("heartbeat response")
}

// --- RESULT -------------------------------------------------------------

func appendResultRequest(b []byte, req resultRequest) []byte {
	b = appendString(b, req.Worker)
	b = appendUvarint(b, uint64(req.JobID))
	b = appendUvarint(b, uint64(req.Refill))
	b = appendUvarint(b, req.FetchDirect)
	b = appendUvarint(b, req.FetchFallback)
	b = appendUvarint(b, uint64(len(req.Kinds)))
	for _, k := range req.Kinds {
		b = appendString(b, k)
	}
	b = appendString(b, req.Error)
	b = appendString(b, req.Panic)
	b = appendBytes(b, req.Stack)
	// The gob result rides last so the encoder appends it in one copy.
	return appendBytes(b, req.Result)
}

func parseResultRequest(p []byte) (resultRequest, error) {
	r := &byteReader{p: p}
	var req resultRequest
	req.Worker = r.str("worker name", maxWireStr)
	req.JobID = int64(r.uvarint("job id"))
	req.Refill = int(r.uvarint("refill"))
	req.FetchDirect = r.uvarint("direct fetches")
	req.FetchFallback = r.uvarint("fallback fetches")
	if n := r.count("kinds", maxWireKinds); r.err == nil && n > 0 {
		req.Kinds = make([]string, n)
		for i := range req.Kinds {
			req.Kinds[i] = r.str("kind", maxWireStr)
		}
	}
	req.Error = r.str("error", maxWireStr)
	req.Panic = r.str("panic", maxWireStr)
	req.Stack = r.bytes("stack", maxWireStr)
	req.Result = r.bytes("result", wire.MaxPayload)
	return req, r.finish("result request")
}

// --- ADVERT / FETCH / CELL (peer cell exchange) --------------------------

func appendAdvert(b []byte, req advertRequest) []byte {
	b = appendString(b, req.Worker)
	b = appendUvarint(b, req.Gen)
	b = appendBool(b, req.Full)
	b = appendUvarint(b, uint64(req.M))
	b = appendUvarint(b, uint64(req.K))
	return appendBytes(b, req.Bits)
}

func parseAdvert(p []byte) (advertRequest, error) {
	r := &byteReader{p: p}
	var req advertRequest
	req.Worker = r.str("worker name", maxWireStr)
	req.Gen = r.uvarint("advert generation")
	req.Full = r.bool("advert full flag")
	m := r.uvarint("filter bits")
	if r.err == nil && m > maxFilterBytes*8 {
		r.fail("dist: filter of %d bits exceeds the %d-bit bound", m, maxFilterBytes*8)
	}
	req.M = uint32(m)
	k := r.uvarint("filter hash count")
	if r.err == nil && (k < 1 || k > maxFilterHashes) {
		r.fail("dist: bogus filter hash count %d (want 1..%d)", k, maxFilterHashes)
	}
	req.K = uint8(k)
	req.Bits = r.bytes("filter bit array", maxFilterBytes)
	if r.err == nil && uint64(len(req.Bits)) != (m+7)/8 {
		r.fail("dist: filter bit array of %d bytes does not match its %d-bit geometry", len(req.Bits), m)
	}
	return req, r.finish("advert")
}

func appendFetchRequest(b []byte, req fetchRequest) []byte {
	b = appendString(b, req.Worker)
	return appendString(b, req.Key)
}

func parseFetchRequest(p []byte) (fetchRequest, error) {
	r := &byteReader{p: p}
	var req fetchRequest
	req.Worker = r.str("worker name", maxWireStr)
	req.Key = r.str("cell key", maxWireStr)
	return req, r.finish("fetch request")
}

func appendCell(b []byte, resp fetchResponse) []byte {
	b = appendBool(b, resp.Found)
	// The raw entry rides last so large cells append in one copy.
	return appendBytes(b, resp.Raw)
}

func parseCell(p []byte) (fetchResponse, error) {
	r := &byteReader{p: p}
	var resp fetchResponse
	resp.Found = r.bool("cell found flag")
	resp.Raw = r.bytes("raw cell entry", wire.MaxPayload)
	if err := r.finish("cell"); err != nil {
		return resp, err
	}
	if !resp.Found && len(resp.Raw) > 0 {
		return resp, fmt.Errorf("dist: cell message: %d payload bytes on a not-found reply", len(resp.Raw))
	}
	return resp, nil
}

// --- SUBMIT / SWEEP (sweep service submissions) --------------------------

// maxSweepPriority bounds the priority a submission may carry: enough for
// any sane scheduling scheme, tight enough that a corrupt varint fails the
// parse instead of minting a sweep that preempts everything forever.
const maxSweepPriority = 1 << 20

func appendSubmit(b []byte, req SubmitRequest) []byte {
	b = appendString(b, req.Exp)
	b = appendString(b, req.Scale)
	b = appendUvarint(b, uint64(req.Priority))
	b = appendUvarint(b, uint64(len(req.Seeds)))
	for _, s := range req.Seeds {
		b = appendUvarint(b, s)
	}
	return b
}

func parseSubmit(p []byte) (SubmitRequest, error) {
	r := &byteReader{p: p}
	var req SubmitRequest
	req.Exp = r.str("experiment id", maxWireStr)
	req.Scale = r.str("sweep scale", maxWireStr)
	prio := r.uvarint("sweep priority")
	if r.err == nil && prio > maxSweepPriority {
		r.fail("dist: sweep priority %d exceeds bound %d", prio, maxSweepPriority)
	}
	req.Priority = int(prio)
	if n := r.count("seeds", maxWireSeeds); r.err == nil && n > 0 {
		req.Seeds = make([]uint64, n)
		for i := range req.Seeds {
			req.Seeds[i] = r.uvarint("seed")
		}
	}
	return req, r.finish("submit")
}

// appendSweep encodes a SUBMIT reply; rejection travels in-band as the Err
// string so the connection survives a refused submission.
func appendSweep(b []byte, resp SubmitResponse) []byte {
	b = appendString(b, resp.ID)
	b = appendUvarint(b, uint64(resp.Position))
	return appendString(b, resp.Err)
}

func parseSweep(p []byte) (SubmitResponse, error) {
	r := &byteReader{p: p}
	var resp SubmitResponse
	resp.ID = r.str("sweep id", maxWireStr)
	resp.Position = int(r.uvarint("queue position"))
	resp.Err = r.str("submit error", maxWireStr)
	return resp, r.finish("sweep")
}
