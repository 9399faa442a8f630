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
	"time"

	"repro/internal/dist/wire"
)

// wireHandshakeTimeout bounds how long an upgraded connection may sit
// without completing its HELLO (drive-by connections must not pin
// goroutines).
const wireHandshakeTimeout = 10 * time.Second

// wireConn is one established binary connection. peer is the peer
// listener address its HELLO named ("" when the worker serves no peers):
// adverts apply only from a connection that names one, and grants hand it
// out as the holder's address.
type wireConn struct {
	worker string
	remote string
	peer   string
	rd     *wire.Reader
	wr     *wire.Writer
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

	wc := &wireConn{worker: worker, remote: conn.RemoteAddr().String(), peer: peer, rd: rd, wr: wr}
	c.wireMu.Lock()
	c.wireConns[wc] = struct{}{}
	c.wireMu.Unlock()
	defer c.retireWireConn(wc)
	c.noteWorker(worker)

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
		if h.Type == wire.FrameAdvert {
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
	case wire.FrameFetch:
		key, err := parseFetchRequest(payload)
		if err != nil {
			wire.PutBuffer(buf)
			return 0, nil, err
		}
		*buf = appendCell(*buf, c.fetchRPC(key))
		return wire.FrameCell, buf, nil
	default:
		wire.PutBuffer(buf)
		return 0, nil, fmt.Errorf("dist: unexpected %s frame on an established connection", wire.TypeName(h.Type))
	}
}
