package dist

// Coordinator side of the wire transport. A remote worker POSTs to
// /dist/wire with an Upgrade header; the coordinator hijacks the
// connection, answers 101 Switching Protocols, and from then on the
// connection speaks wire frames: one HELLO (name + secret digest, checked
// in constant time before any protocol state is touched), one WELCOME, and
// then one request/reply frame pair per protocol action, multiplexed by
// stream id across the worker's slots. Co-execution skips the upgrade: its
// worker gets one end of an in-memory net.Pipe and the coordinator serves
// the other end with the same dispatcher, so every batching, reassignment,
// and auth guarantee holds identically for in-process and remote workers.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/dist/wire"
)

// wireHandshakeTimeout bounds how long an upgraded connection may sit
// without completing its HELLO (drive-by connections must not pin
// goroutines).
const wireHandshakeTimeout = 10 * time.Second

// serverStreamBit marks coordinator-initiated streams (relayed FETCHes);
// worker-chosen stream ids stay below it, so the two id spaces never
// collide on one connection.
const serverStreamBit = uint32(1) << 31

// wireConn is one established binary connection.
type wireConn struct {
	worker string
	remote string
	rd     *wire.Reader
	wr     *wire.Writer

	// Relay state: coordinator-initiated FETCH streams awaiting the
	// worker's CELL reply. The Writer serializes concurrent frames itself;
	// this mutex only guards the waiter table.
	mu         sync.Mutex
	dead       bool
	nextStream uint32
	relays     map[uint32]chan []byte
}

// newRelay registers a coordinator-initiated stream and its reply channel
// (buffered so a late CELL never blocks the read loop after a timeout).
func (wc *wireConn) newRelay() (uint32, chan []byte, bool) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if wc.dead {
		return 0, nil, false
	}
	wc.nextStream++
	id := serverStreamBit | (wc.nextStream &^ serverStreamBit)
	ch := make(chan []byte, 1)
	wc.relays[id] = ch
	return id, ch, true
}

func (wc *wireConn) dropRelay(id uint32) {
	wc.mu.Lock()
	delete(wc.relays, id)
	wc.mu.Unlock()
}

// deliverRelay hands a CELL payload to its waiter. Unknown streams (already
// timed out, or a confused worker) are dropped silently — relays are
// best-effort by design.
func (wc *wireConn) deliverRelay(id uint32, payload []byte) {
	wc.mu.Lock()
	ch, ok := wc.relays[id]
	if ok {
		delete(wc.relays, id)
	}
	wc.mu.Unlock()
	if ok {
		ch <- append([]byte(nil), payload...)
	}
}

// failRelays marks the connection dead and wakes every pending relay with
// a closed channel (their fetches fall through to the next holder).
func (wc *wireConn) failRelays() {
	wc.mu.Lock()
	wc.dead = true
	for id, ch := range wc.relays {
		delete(wc.relays, id)
		close(ch)
	}
	wc.mu.Unlock()
}

func (wc *wireConn) status() WireConnStatus {
	fi, bi := wc.rd.Stats()
	fo, bo := wc.wr.Stats()
	return WireConnStatus{
		Worker: wc.worker, Remote: wc.remote,
		FramesIn: fi, FramesOut: fo, BytesIn: bi, BytesOut: bo,
	}
}

// handleWire upgrades a worker's HTTP request to the binary framed
// protocol and serves frames until the connection dies.
func (c *Coordinator) handleWire(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != wireProtoName {
		// A client that does not speak this build's protocol gets a plain
		// HTTP error naming the token it should have sent.
		http.Error(w, "upgrade required: set Upgrade: "+wireProtoName, http.StatusUpgradeRequired)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "binary wire unavailable: server cannot hijack connections", http.StatusNotImplemented)
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "hijack: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: "+
		wireProtoName+"\r\nConnection: Upgrade\r\n\r\n"); err != nil {
		conn.Close()
		return
	}
	// brw.Reader may hold bytes the worker pipelined behind the upgrade
	// request; frames must drain it before touching the socket.
	c.serveWireConn(conn, brw.Reader)
}

// pipeConnect is co-execution's connect seam: an in-memory net.Pipe whose
// far end the coordinator serves exactly like an upgraded connection.
func (c *Coordinator) pipeConnect(ctx context.Context) (net.Conn, io.Reader, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	worker, coord := net.Pipe()
	go c.serveWireConn(coord, coord)
	return worker, worker, nil
}

// serveWireConn runs one wire connection until it dies, then closes it:
// handshake, then a read-dispatch-reply loop. Any protocol violation —
// malformed payload, unexpected frame type — is terminal: the worker gets
// an ERROR frame and the connection closes (fail closed, like the frame
// decoder itself).
func (c *Coordinator) serveWireConn(conn net.Conn, r io.Reader) {
	defer conn.Close()
	rd := wire.NewReader(r)
	wr := wire.NewWriter(conn)
	count := func(err error) error {
		c.framesOut.Add(1)
		return err
	}

	conn.SetReadDeadline(time.Now().Add(wireHandshakeTimeout))
	h, payload, err := rd.ReadFrame()
	if err != nil {
		return
	}
	c.framesIn.Add(1)
	if h.Type != wire.FrameHello {
		count(wr.WriteFrame(wire.FrameError, 0, 0, []byte("dist: expected HELLO, got "+wire.TypeName(h.Type))))
		return
	}
	worker, digest, peer, err := parseHello(payload)
	if err != nil {
		count(wr.WriteFrame(wire.FrameError, 0, 0, []byte(err.Error())))
		return
	}
	if !secretDigestOK(c.opt.Secret, digest) {
		// The terminal auth frame is what makes the worker exit with
		// *dist.AuthError instead of redialing.
		count(wr.WriteFrame(wire.FrameError, wire.FlagAuthFailed, 0,
			[]byte("unauthorized: shared secret mismatch on HELLO")))
		return
	}
	if err := count(wr.WriteFrame(wire.FrameWelcome, 0, 0, appendWelcome(nil))); err != nil {
		return
	}

	wc := &wireConn{
		worker: worker, remote: conn.RemoteAddr().String(), rd: rd, wr: wr,
		relays: map[uint32]chan []byte{},
	}
	c.wireMu.Lock()
	c.wireConns[wc] = struct{}{}
	c.wireMu.Unlock()
	defer func() {
		c.retireWireConn(wc)
		wc.failRelays()
	}()
	c.mu.Lock()
	c.registerWorkerLocked(worker, peer, time.Now())
	c.mu.Unlock()

	idle := workerTTLFactor * c.opt.leaseTTL()
	for {
		// A connection that goes silent past the worker-liveness window is
		// dead weight: time it out rather than pin it forever.
		conn.SetReadDeadline(time.Now().Add(idle))
		h, payload, err := rd.ReadFrame()
		if err != nil {
			return
		}
		c.framesIn.Add(1)
		switch h.Type {
		case wire.FrameAdvert:
			// Fire-and-forget: the worker paces itself against the budget;
			// malformed indicators are terminal like any other bad frame.
			req, err := parseAdvert(payload)
			if err != nil {
				count(wr.WriteFrame(wire.FrameError, 0, h.Stream, []byte(err.Error())))
				return
			}
			req.Worker = worker
			c.advertRPC(req, int(h.Length), wc)
			continue
		case wire.FrameCell:
			// Reply to a coordinator-initiated relay stream: hand the raw
			// payload to the waiting fetch (parse happens there).
			wc.deliverRelay(h.Stream, payload)
			continue
		case wire.FrameFetch:
			req, err := parseFetchRequest(payload)
			if err != nil {
				count(wr.WriteFrame(wire.FrameError, 0, h.Stream, []byte(err.Error())))
				return
			}
			req.Worker = worker
			// Served off the read loop: a fetch that relays to another
			// holder blocks up to relayTimeout, and this worker's lease and
			// result frames must not queue behind it. The Writer serializes
			// concurrent frames.
			go func(stream uint32, req fetchRequest) {
				resp := c.fetchRPC(context.Background(), req)
				buf := wire.GetBuffer()
				*buf = appendCell(*buf, resp)
				count(wr.WriteFrame(wire.FrameCell, 0, stream, *buf))
				wire.PutBuffer(buf)
			}(h.Stream, req)
			continue
		}
		replyType, reply, err := c.dispatchFrame(h, payload)
		if err != nil {
			count(wr.WriteFrame(wire.FrameError, 0, h.Stream, []byte(err.Error())))
			return
		}
		err = count(wr.WriteFrame(replyType, 0, h.Stream, *reply))
		wire.PutBuffer(reply)
		if err != nil {
			return
		}
	}
}

// relayFetch forwards one FETCH down an established worker connection and
// waits (bounded) for its CELL. Returns the raw entry bytes, unverified —
// the caller checks them against the key before trusting anything.
func (c *Coordinator) relayFetch(ctx context.Context, wc *wireConn, key string) ([]byte, bool) {
	id, ch, ok := wc.newRelay()
	if !ok {
		return nil, false
	}
	buf := wire.GetBuffer()
	*buf = appendFetchRequest(*buf, fetchRequest{Key: key})
	err := wc.wr.WriteFrame(wire.FrameFetch, 0, id, *buf)
	wire.PutBuffer(buf)
	c.framesOut.Add(1)
	if err != nil {
		wc.dropRelay(id)
		return nil, false
	}
	timer := time.NewTimer(relayTimeout)
	defer timer.Stop()
	select {
	case payload, ok := <-ch:
		if !ok {
			return nil, false // connection died mid-relay
		}
		resp, err := parseCell(payload)
		if err != nil || !resp.Found {
			return nil, false
		}
		return resp.Raw, true
	case <-timer.C:
		wc.dropRelay(id)
		return nil, false
	case <-ctx.Done():
		wc.dropRelay(id)
		return nil, false
	}
}

// dispatchFrame decodes one request frame, runs the shared RPC state
// machine, and encodes the reply into a pooled buffer (the caller writes
// the frame and returns the buffer).
func (c *Coordinator) dispatchFrame(h wire.Header, payload []byte) (byte, *[]byte, error) {
	buf := wire.GetBuffer()
	switch h.Type {
	case wire.FrameLease:
		req, err := parseLeaseRequest(payload)
		if err != nil {
			wire.PutBuffer(buf)
			return 0, nil, err
		}
		*buf = appendGrant(*buf, c.leaseRPC(req))
		return wire.FrameGrant, buf, nil
	case wire.FrameHeartbeat:
		req, err := parseHeartbeatRequest(payload)
		if err != nil {
			wire.PutBuffer(buf)
			return 0, nil, err
		}
		*buf = appendHeartbeatResponse(*buf, c.heartbeatRPC(req))
		return wire.FrameBeatAck, buf, nil
	case wire.FrameResult:
		req, err := parseResultRequest(payload)
		if err != nil {
			wire.PutBuffer(buf)
			return 0, nil, err
		}
		*buf = appendGrant(*buf, c.resultRPC(req))
		return wire.FrameResultAck, buf, nil
	case wire.FrameSubmit:
		req, err := parseSubmit(payload)
		if err != nil {
			wire.PutBuffer(buf)
			return 0, nil, err
		}
		// The reply carries rejection in-band (SubmitResponse.Err), so a
		// client on a non-service coordinator gets a description, not a
		// dropped connection.
		*buf = appendSweep(*buf, c.submitRPC(req))
		return wire.FrameSweep, buf, nil
	default:
		wire.PutBuffer(buf)
		return 0, nil, fmt.Errorf("dist: unexpected %s frame on an established connection", wire.TypeName(h.Type))
	}
}
