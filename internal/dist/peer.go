package dist

// Worker-to-worker data path: an optional per-worker peer listener serving
// the worker's local cell store to other workers directly, taking the
// coordinator off the bulk-data path. The listener speaks the same framed
// wire as everything else — raw TCP (both ends already speak frames, so no
// HTTP upgrade), a HELLO/WELCOME handshake authenticated with the same
// shared-secret digest as coordinator connections, then one request/reply
// pair: FETCH→CELL (serve one raw entry). Anything else is a terminal
// ERROR, like the coordinator's wire. A peer listener never accepts
// writes: a worker's store holds only what it simulated or fetched itself.
//
// Clients dial per operation: direct fetches happen in bursts during a cold
// worker's warm-up, so connection reuse buys little against the simplicity
// of no per-peer session state.
// Every failure — dial, handshake, timeout, verification — degrades to the
// next tier (coordinator relay, then local simulation), never to a wrong
// result.

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"net"
	"sync"
	"time"

	"repro/internal/cellstore"
	"repro/internal/dist/wire"
)

// peerIdleTimeout bounds how long an established peer connection may sit
// silent before the server closes it (clients dial per operation, so idle
// connections are leaks, not sessions worth keeping).
const peerIdleTimeout = time.Minute

// peerOpTimeout bounds one whole client-side peer operation: dial,
// handshake, request, reply. Tighter than the coordinator relay path — a
// slow peer should lose to the relay fallback quickly, not serialize behind
// the full relay timeout twice.
const peerOpTimeout = relayTimeout

// secretDigestOK compares a secret's SHA-256 digest against secret in
// constant time; an empty secret accepts anything (an unauthenticated
// coordinator or peer listener).
func secretDigestOK(secret string, digest []byte) bool {
	if secret == "" {
		return true
	}
	want := sha256.Sum256([]byte(secret))
	if len(digest) != sha256.Size {
		return false
	}
	return subtle.ConstantTimeCompare(want[:], digest) == 1
}

// writeHello sends the handshake frame that opens every coordinator and
// peer connection, carrying the digest secretDigestOK checks.
func writeHello(wr *wire.Writer, worker, secret, peer string) error {
	digest := sha256.Sum256([]byte(secret))
	buf := wire.GetBuffer()
	*buf = appendHello(*buf, worker, digest[:], peer)
	err := wr.WriteFrame(wire.FrameHello, 0, 0, *buf)
	wire.PutBuffer(buf)
	return err
}

// peerServer is one worker's peer listener. Serving is deliberately
// counter-free on this side: the fetching worker reports direct-path
// traffic to the coordinator as deltas on its result posts, so the fleet
// totals live in one place.
type peerServer struct {
	secret string
	store  *cellstore.Store
	ln     net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// startPeerServer listens on addr and serves the store to peers until
// Close. The returned server's Addr is the resolved listen address (port 0
// resolves to the kernel's pick) — but note the *advertised* address must
// be dialable by peers, so a wildcard host is advertised as given.
func startPeerServer(addr, secret string, store *cellstore.Store) (*peerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &peerServer{
		secret: secret, store: store, ln: ln,
		conns: map[net.Conn]struct{}{},
	}
	go p.acceptLoop()
	return p, nil
}

// Addr is the resolved listen address.
func (p *peerServer) Addr() string { return p.ln.Addr().String() }

// Close stops accepting and closes every open peer connection.
func (p *peerServer) Close() error {
	p.mu.Lock()
	p.closed = true
	for conn := range p.conns {
		conn.Close()
	}
	p.mu.Unlock()
	return p.ln.Close()
}

func (p *peerServer) track(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[conn] = struct{}{}
	return true
}

func (p *peerServer) untrack(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

func (p *peerServer) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go p.serve(conn)
	}
}

// serve runs one peer connection: handshake, then FETCH frames until the
// peer hangs up, idles out, or violates the protocol.
func (p *peerServer) serve(conn net.Conn) {
	defer conn.Close()
	if !p.track(conn) {
		return
	}
	defer p.untrack(conn)

	rd := wire.NewReader(conn)
	wr := wire.NewWriter(conn)
	conn.SetReadDeadline(time.Now().Add(wireHandshakeTimeout))
	h, payload, err := rd.ReadFrame()
	if err != nil || h.Type != wire.FrameHello {
		return
	}
	_, digest, _, err := parseHello(payload)
	if err != nil {
		wr.WriteFrame(wire.FrameError, 0, 0, []byte(err.Error()))
		return
	}
	if !secretDigestOK(p.secret, digest) {
		wr.WriteFrame(wire.FrameError, wire.FlagAuthFailed, 0,
			[]byte("unauthorized: shared secret mismatch on peer HELLO"))
		return
	}
	if wr.WriteFrame(wire.FrameWelcome, 0, 0, appendWelcome(nil)) != nil {
		return
	}

	for {
		conn.SetReadDeadline(time.Now().Add(peerIdleTimeout))
		h, payload, err := rd.ReadFrame()
		if err != nil {
			return
		}
		if h.Type != wire.FrameFetch {
			wr.WriteFrame(wire.FrameError, 0, h.Stream,
				[]byte("dist: unexpected "+wire.TypeName(h.Type)+" frame on a peer connection"))
			return
		}
		req, err := parseFetchRequest(payload)
		if err != nil {
			wr.WriteFrame(wire.FrameError, 0, h.Stream, []byte(err.Error()))
			return
		}
		var resp fetchResponse
		if raw, ok := p.store.GetRaw(req.Key); ok {
			resp = fetchResponse{Found: true, Raw: raw}
		}
		buf := wire.GetBuffer()
		*buf = appendCell(*buf, resp)
		err = wr.WriteFrame(wire.FrameCell, 0, h.Stream, *buf)
		wire.PutBuffer(buf)
		if err != nil {
			return
		}
	}
}

// --- Peer client ---------------------------------------------------------

// peerFetch fetches one raw cell entry directly from a holder's peer
// listener: dial, authenticate, one FETCH→CELL exchange, all within
// peerOpTimeout. Returns ok=false on any failure — the caller falls back to
// the coordinator relay. The returned bytes are unverified; the caller
// checks them against the key before trusting anything.
func peerFetch(ctx context.Context, addr, worker, secret, key string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(ctx, peerOpTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, false
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	wr := wire.NewWriter(conn)
	if writeHello(wr, worker, secret, "") != nil {
		return nil, false
	}
	rd := wire.NewReader(conn)
	h, payload, err := rd.ReadFrame()
	if err != nil || h.Type != wire.FrameWelcome || parseWelcome(payload) != nil {
		return nil, false
	}
	buf := wire.GetBuffer()
	*buf = appendFetchRequest(*buf, fetchRequest{Worker: worker, Key: key})
	err = wr.WriteFrame(wire.FrameFetch, 0, 1, *buf)
	wire.PutBuffer(buf)
	if err != nil {
		return nil, false
	}
	h, payload, err = rd.ReadFrame()
	if err != nil || h.Type != wire.FrameCell {
		return nil, false
	}
	resp, err := parseCell(payload)
	if err != nil || !resp.Found {
		return nil, false
	}
	return resp.Raw, true
}
