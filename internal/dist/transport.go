package dist

// Worker-side transport: one persistent connection carrying wire frames,
// multiplexed by stream id across the worker's slots. Connection drops
// reconnect with capped exponential backoff plus jitter; an auth rejection
// is sticky and terminal. How the connection is obtained is a seam: a
// remote worker dials the coordinator's URL and upgrades POST /dist/wire,
// while co-execution hands over one end of an in-memory net.Pipe whose
// other end the coordinator serves directly. The HELLO/WELCOME handshake
// and everything after it are the same either way.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/dist/wire"
)

// connectFunc opens one raw connection to the coordinator, ready for the
// HELLO frame. Frames are read from r, which may hold bytes buffered past
// an HTTP upgrade; writes go to conn.
type connectFunc func(ctx context.Context) (conn net.Conn, r io.Reader, err error)

// newTransport builds a worker's transport. connect == nil dials
// o.Coordinator, which must be an http://host:port URL.
func newTransport(o WorkerOptions, connect connectFunc) (*binaryTransport, error) {
	switch o.Wire {
	case "", "binary":
	case "http":
		return nil, fmt.Errorf("dist: WorkerOptions.Wire %q: the HTTP/JSON worker transport was removed; leave Wire empty (or \"binary\") to use the binary wire", o.Wire)
	default:
		return nil, fmt.Errorf("dist: unknown WorkerOptions.Wire %q (want \"\" or \"binary\")", o.Wire)
	}
	if connect == nil {
		u, err := url.Parse(o.Coordinator)
		if err != nil {
			return nil, fmt.Errorf("dist: coordinator URL %q: %w", o.Coordinator, err)
		}
		if u.Scheme != "http" || u.Host == "" {
			return nil, fmt.Errorf("dist: the wire transport needs an http://host:port coordinator URL, got %q", o.Coordinator)
		}
		connect = dialUpgrade(u.Host)
	}
	return &binaryTransport{opt: o, name: o.name(), connect: connect}, nil
}

// dialUpgrade is the connect seam for a remote coordinator: TCP, then the
// POST /dist/wire upgrade to the framed protocol.
func dialUpgrade(host string) connectFunc {
	return func(ctx context.Context) (net.Conn, io.Reader, error) {
		d := net.Dialer{Timeout: wireHandshakeTimeout}
		conn, err := d.DialContext(ctx, "tcp", host)
		if err != nil {
			return nil, nil, fmt.Errorf("dist: dial coordinator: %w", err)
		}
		conn.SetDeadline(time.Now().Add(wireHandshakeTimeout))
		if _, err := fmt.Fprintf(conn, "POST /dist/wire HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
			host, wireProtoName); err != nil {
			conn.Close()
			return nil, nil, fmt.Errorf("dist: wire upgrade request: %w", err)
		}
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodPost})
		if err != nil {
			conn.Close()
			return nil, nil, fmt.Errorf("dist: wire upgrade response: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusSwitchingProtocols {
			conn.Close()
			return nil, nil, fmt.Errorf("%w (HTTP %d to the upgrade; is %s a bashsim coordinator of this build?)", wire.ErrNotWire, resp.StatusCode, host)
		}
		return conn, br, nil
	}
}

// Reconnect backoff: exponential from base to cap, with jitter in
// [delay/2, delay) so a fleet severed by one coordinator restart does not
// redial in lockstep.
const (
	wireBackoffBase = 100 * time.Millisecond
	wireBackoffMax  = 5 * time.Second
)

func reconnectDelay(fails int) time.Duration {
	if fails < 1 {
		fails = 1
	}
	d := wireBackoffBase
	for i := 1; i < fails && d < wireBackoffMax; i++ {
		d *= 2
	}
	if d > wireBackoffMax {
		d = wireBackoffMax
	}
	return d/2 + rand.N(d/2)
}

// wireReply is one response frame routed to its waiting stream.
type wireReply struct {
	h       wire.Header
	payload []byte
	err     error
}

// wireSession is one established connection: a writer shared by all slots
// and a reader goroutine demultiplexing response frames by stream id.
type wireSession struct {
	conn net.Conn
	wr   *wire.Writer

	mu      sync.Mutex
	dead    bool
	err     error
	next    uint32
	waiters map[uint32]chan wireReply
}

// register claims a fresh stream id and parks a reply channel on it.
func (s *wireSession) register() (uint32, chan wireReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0, nil, s.err
	}
	s.next++
	if s.next == 0 { // stream 0 is connection scope
		s.next = 1
	}
	ch := make(chan wireReply, 1)
	s.waiters[s.next] = ch
	return s.next, ch, nil
}

func (s *wireSession) unregister(stream uint32) {
	s.mu.Lock()
	delete(s.waiters, stream)
	s.mu.Unlock()
}

// deliver routes one response frame; unknown streams (canceled waiters)
// are dropped.
func (s *wireSession) deliver(h wire.Header, payload []byte) {
	s.mu.Lock()
	ch := s.waiters[h.Stream]
	delete(s.waiters, h.Stream)
	s.mu.Unlock()
	if ch != nil {
		ch <- wireReply{h: h, payload: payload}
	}
}

// fail marks the session dead and wakes every waiter with err. Idempotent.
func (s *wireSession) fail(err error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	s.err = err
	waiters := s.waiters
	s.waiters = map[uint32]chan wireReply{}
	s.mu.Unlock()
	s.conn.Close()
	for _, ch := range waiters {
		ch <- wireReply{err: err}
	}
}

// binaryTransport connects, authenticates, and multiplexes; it owns
// reconnection policy and the sticky auth state. All methods are safe for
// concurrent use across slots.
type binaryTransport struct {
	opt     WorkerOptions
	name    string
	connect connectFunc

	mu       sync.Mutex
	sess     *wireSession
	fails    int       // consecutive connect failures (drops count as one)
	nextDial time.Time // backoff gate
	authErr  error     // sticky: terminal auth rejection
	closed   bool      // sticky: Close was called, never redial

	// Advert delta state, valid only for the session it was sent on: a
	// reconnect starts over with a full filter (the coordinator's table
	// entry may be stale or gone, and frame ordering only holds within one
	// connection).
	advMu    sync.Mutex
	advSess  *wireSession
	lastSent *cellFilter
	advGen   uint64
}

func (t *binaryTransport) Close() {
	t.mu.Lock()
	s := t.sess
	t.closed = true
	t.mu.Unlock()
	if s != nil {
		s.fail(fmt.Errorf("dist: transport closed"))
	}
}

// ensure returns the live session, dialing (with backoff) when none exists.
func (t *binaryTransport) ensure(ctx context.Context) (*wireSession, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.authErr != nil {
		return nil, t.authErr
	}
	if t.closed {
		return nil, fmt.Errorf("dist: transport closed")
	}
	if t.sess != nil {
		return t.sess, nil
	}
	if wait := time.Until(t.nextDial); wait > 0 {
		return nil, fmt.Errorf("dist: wire reconnect backing off %v (attempt %d)", wait.Round(time.Millisecond), t.fails)
	}
	sess, err := t.dial(ctx)
	if err != nil {
		if t.authErr == nil {
			t.fails++
			t.nextDial = time.Now().Add(reconnectDelay(t.fails))
		}
		return nil, err
	}
	t.fails = 0
	t.sess = sess
	return sess, nil
}

// dial establishes one connection: connect, then HELLO/WELCOME. It runs
// with t.mu held (every slot needs the same connection anyway).
func (t *binaryTransport) dial(ctx context.Context) (*wireSession, error) {
	conn, r, err := t.connect(ctx)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(wireHandshakeTimeout))
	wr := wire.NewWriter(conn)
	if err := writeHello(wr, t.name, t.opt.Secret, t.opt.PeerAddr); err != nil {
		conn.Close()
		return nil, err
	}
	rd := wire.NewReader(r)
	h, payload, err := rd.ReadFrame()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: wire handshake: %w", err)
	}
	switch {
	case h.Type == wire.FrameError && h.Flags&wire.FlagAuthFailed != 0:
		conn.Close()
		t.authErr = &AuthError{Coordinator: t.opt.Coordinator}
		return nil, t.authErr
	case h.Type == wire.FrameError:
		conn.Close()
		return nil, fmt.Errorf("dist: coordinator rejected the connection: %s", parseErrorFrame(payload))
	case h.Type != wire.FrameWelcome:
		conn.Close()
		return nil, fmt.Errorf("dist: wire handshake: expected WELCOME, got %s", wire.TypeName(h.Type))
	}
	if err := parseWelcome(payload); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})

	sess := &wireSession{conn: conn, wr: wr, waiters: map[uint32]chan wireReply{}}
	go t.readLoop(sess, rd)
	return sess, nil
}

// readLoop demultiplexes response frames until the connection dies, then
// fails the session (slots redial via ensure's backoff gate).
func (t *binaryTransport) readLoop(sess *wireSession, rd *wire.Reader) {
	for {
		h, payload, err := rd.ReadFrame()
		if err != nil {
			t.dropSession(sess, fmt.Errorf("dist: wire connection lost: %w", err))
			return
		}
		if h.Type == wire.FrameError {
			msg := parseErrorFrame(payload)
			var terr error = fmt.Errorf("dist: coordinator error: %s", msg)
			if h.Flags&wire.FlagAuthFailed != 0 {
				terr = &AuthError{Coordinator: t.opt.Coordinator}
			}
			t.dropSession(sess, terr)
			return
		}
		// The reader reuses its frame buffer; the waiter owns its copy.
		cp := append([]byte(nil), payload...)
		sess.deliver(h, cp)
	}
}

// dropSession fails sess and arms the reconnect backoff (or the sticky
// auth error).
func (t *binaryTransport) dropSession(sess *wireSession, err error) {
	t.mu.Lock()
	if t.sess == sess {
		t.sess = nil
		if ae, ok := err.(*AuthError); ok {
			t.authErr = ae
		} else {
			t.fails++
			t.nextDial = time.Now().Add(reconnectDelay(t.fails))
			t.opt.logf("worker %s: %v; reconnecting in <= %v", t.name, err, reconnectDelay(t.fails).Round(time.Millisecond))
		}
	}
	t.mu.Unlock()
	sess.fail(err)
}

// rpc performs one request/reply frame exchange on a fresh stream.
func (t *binaryTransport) rpc(ctx context.Context, reqType byte, payload []byte, wantType byte) ([]byte, error) {
	sess, err := t.ensure(ctx)
	if err != nil {
		return nil, err
	}
	stream, ch, err := sess.register()
	if err != nil {
		return nil, err
	}
	if err := sess.wr.WriteFrame(reqType, 0, stream, payload); err != nil {
		sess.unregister(stream)
		t.dropSession(sess, err)
		return nil, err
	}
	select {
	case <-ctx.Done():
		sess.unregister(stream)
		return nil, ctx.Err()
	case reply := <-ch:
		if reply.err != nil {
			return nil, reply.err
		}
		if reply.h.Type != wantType {
			err := fmt.Errorf("dist: expected %s reply, got %s", wire.TypeName(wantType), wire.TypeName(reply.h.Type))
			t.dropSession(sess, err)
			return nil, err
		}
		return reply.payload, nil
	}
}

// Lease asks for a batch of jobs; (nil, nil) means an empty GRANT, no work
// right now.
func (t *binaryTransport) Lease(ctx context.Context, req leaseRequest) (*leaseResponse, error) {
	buf := wire.GetBuffer()
	*buf = appendLeaseRequest(*buf, req)
	payload, err := t.rpc(ctx, wire.FrameLease, *buf, wire.FrameGrant)
	wire.PutBuffer(buf)
	if err != nil {
		return nil, err
	}
	resp, err := parseGrant(payload)
	if err != nil {
		return nil, err
	}
	if len(resp.Jobs) == 0 {
		return nil, nil
	}
	return &resp, nil
}

func (t *binaryTransport) Heartbeat(ctx context.Context, req heartbeatRequest) (*heartbeatResponse, error) {
	buf := wire.GetBuffer()
	*buf = appendHeartbeatRequest(*buf, req)
	payload, err := t.rpc(ctx, wire.FrameHeartbeat, *buf, wire.FrameBeatAck)
	wire.PutBuffer(buf)
	if err != nil {
		return nil, err
	}
	resp, err := parseHeartbeatResponse(payload)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t *binaryTransport) Result(ctx context.Context, req resultRequest) (*leaseResponse, error) {
	buf := wire.GetBuffer()
	*buf = appendResultRequest(*buf, req)
	payload, err := t.rpc(ctx, wire.FrameResult, *buf, wire.FrameResultAck)
	wire.PutBuffer(buf)
	if err != nil {
		return nil, err
	}
	resp, err := parseGrant(payload)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Advert sends the indicator as a fire-and-forget ADVERT frame on stream 0
// (the coordinator never replies; per-connection frame ordering makes
// deltas safe without acknowledgment). The reported size is the
// uncompressed payload plus header — an overestimate once the shared
// deflate context warms up, which errs the budget pacing conservative.
func (t *binaryTransport) Advert(ctx context.Context, f *cellFilter) (int, error) {
	sess, err := t.ensure(ctx)
	if err != nil {
		return 0, err
	}
	t.advMu.Lock()
	defer t.advMu.Unlock()
	req := advertRequest{Worker: t.name, Gen: t.advGen + 1, M: f.m, K: f.k}
	if sess == t.advSess && t.lastSent != nil && f.sameShape(t.lastSent) {
		req.Bits = f.xor(t.lastSent)
	} else {
		req.Full = true
		req.Gen = 1
		req.Bits = f.bits
	}
	buf := wire.GetBuffer()
	*buf = appendAdvert(*buf, req)
	sent := len(*buf) + wire.HeaderSize
	err = sess.wr.WriteFrame(wire.FrameAdvert, 0, 0, *buf)
	wire.PutBuffer(buf)
	if err != nil {
		t.dropSession(sess, err)
		return 0, err
	}
	t.advSess = sess
	t.lastSent = f.clone()
	t.advGen = req.Gen
	return sent, nil
}

// Fetch asks the coordinator's own store for one raw cell entry
// (request/reply like any other RPC).
func (t *binaryTransport) Fetch(ctx context.Context, key string) (*fetchResponse, error) {
	buf := wire.GetBuffer()
	*buf = appendFetchRequest(*buf, key)
	payload, err := t.rpc(ctx, wire.FrameFetch, *buf, wire.FrameCell)
	wire.PutBuffer(buf)
	if err != nil {
		return nil, err
	}
	resp, err := parseCell(payload)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}
