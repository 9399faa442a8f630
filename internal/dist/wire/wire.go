// Package wire is the framed binary transport under the dist plane: a
// length-prefixed frame protocol spoken over one persistent TCP connection
// per worker, replacing one JSON-over-HTTP request per protocol action.
//
// Every frame is a fixed 20-byte header followed by a payload:
//
//	offset  size  field
//	0       4     magic "BSWF"
//	4       1     protocol version (currently 5)
//	5       1     frame type (FrameHello .. FrameCell)
//	6       2     flags, big-endian (FlagAuthFailed, FlagDeflate)
//	8       4     stream id, big-endian (0 = connection scope)
//	12      4     payload length, big-endian (bounded by MaxPayload)
//	16      4     CRC-32 (IEEE) of bytes 0..15, big-endian
//
// The header CRC means a desynchronized or corrupted stream is detected at
// the next frame boundary instead of being misread as a giant length; the
// decoder never trusts a length whose header failed the checksum.
//
// Frames with FlagDeflate carry a deflate-compressed payload (a uvarint of
// the raw length, then the compressed bytes) with per-connection context
// takeover: both ends keep one flate stream alive for the life of the
// connection, so the near-identical gob payloads of a sweep — thousands of
// cell specs and metric blobs differing only in a few floats — compress
// against each other, not from scratch. That is where the dist plane's
// bandwidth goes from "HTTP with less framing" to a small fraction of it.
// Handshake frames (Hello, Welcome, Error) are never compressed, so auth
// and version negotiation never depend on codec state.
//
// Reader and Writer reuse their frame buffers across calls (the payload
// returned by ReadFrame is only valid until the next call), keeping the
// per-frame hot path allocation-free in steady state, consistent with the
// simulator's own free-list discipline.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

const (
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 20
	// Version is the protocol version spoken by this package. v2 added the
	// peer cell exchange: the ADVERT/FETCH/CELL frames and a per-job
	// likely-holder hint inside GRANT payloads (a strict codec change, so
	// mixed builds reject each other at the handshake instead of failing
	// mid-sweep on a parse error). The SUBMIT/SWEEP pair (sweep service
	// submissions) was appended without a bump: the new types only ever
	// flow client -> coordinator after negotiation, and an older build
	// rejects them cleanly as unknown frame types at the header parse.
	// v3 is direct peer fetch: HELLO gains the worker's peer listener
	// address, GRANT jobs gain holder peer-address lists, and RESULT gains
	// the worker's fetch-path delta counters — strict codec-shape changes
	// again, so the version bumps. v4 drops key ownership and replication:
	// GRANT jobs lose their owner list, RESULT its replication counter, and
	// the PUT/PUT-ACK frames are gone. v5 drops the coordinator relay and
	// the SUBMIT/SWEEP pair: a FETCH flows worker -> coordinator or worker
	// -> peer only, LEASE loses its peer address (HELLO carries it), and
	// sweep submissions are HTTP JSON.
	Version = 5
	// MaxPayload bounds a frame's payload (raw or compressed), mirroring
	// the HTTP transport's request-body cap.
	MaxPayload = 64 << 20
	// CompressMin is the smallest data-frame payload worth deflating;
	// below it the flush marker overhead rivals the savings.
	CompressMin = 64
)

// Frame types. Hello/Welcome/Error are connection-scope (stream 0);
// the rest carry one protocol action each on a worker slot's stream.
const (
	FrameHello     byte = 1 + iota // worker -> coordinator: name + secret digest
	FrameWelcome                   // coordinator -> worker: connection accepted
	FrameError                     // either direction: terminal error, connection closes
	FrameLease                     // worker -> coordinator: lease request
	FrameGrant                     // coordinator -> worker: granted jobs (may be empty)
	FrameHeartbeat                 // worker -> coordinator: extend held leases
	FrameBeatAck                   // coordinator -> worker: heartbeat reply
	FrameResult                    // worker -> coordinator: one job's outcome
	FrameResultAck                 // coordinator -> worker: ack + optional refill grant
	FrameAdvert                    // worker -> coordinator: cell-store membership indicator (no reply)
	FrameFetch                     // worker -> coordinator or peer: request one raw cell entry by key
	FrameCell                      // FETCH reply (found flag + raw entry bytes)
	frameTypeEnd
)

// Flags.
const (
	// FlagAuthFailed marks a FrameError as an authentication rejection:
	// the worker must not reconnect with the same credentials.
	FlagAuthFailed uint16 = 1 << 0
	// FlagDeflate marks a payload as deflate-compressed (uvarint raw
	// length + compressed bytes) under the connection's shared context.
	FlagDeflate uint16 = 1 << 1
)

// magic identifies a bashsim wire frame.
var magic = [4]byte{'B', 'S', 'W', 'F'}

// Header is one parsed frame header. Length is the on-wire payload length
// (the compressed length for FlagDeflate frames).
type Header struct {
	Version byte
	Type    byte
	Flags   uint16
	Stream  uint32
	Length  int
}

// TypeName names a frame type for logs and errors.
func TypeName(t byte) string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameWelcome:
		return "WELCOME"
	case FrameError:
		return "ERROR"
	case FrameLease:
		return "LEASE"
	case FrameGrant:
		return "GRANT"
	case FrameHeartbeat:
		return "HEARTBEAT"
	case FrameBeatAck:
		return "BEAT-ACK"
	case FrameResult:
		return "RESULT"
	case FrameResultAck:
		return "RESULT-ACK"
	case FrameAdvert:
		return "ADVERT"
	case FrameFetch:
		return "FETCH"
	case FrameCell:
		return "CELL"
	default:
		return fmt.Sprintf("type-%d", t)
	}
}

// putHeader encodes h into b, computing the CRC.
func putHeader(b *[HeaderSize]byte, h Header) {
	copy(b[0:4], magic[:])
	b[4] = h.Version
	b[5] = h.Type
	binary.BigEndian.PutUint16(b[6:8], h.Flags)
	binary.BigEndian.PutUint32(b[8:12], h.Stream)
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Length))
	binary.BigEndian.PutUint32(b[16:20], crc32.ChecksumIEEE(b[0:16]))
}

// ParseHeader decodes and validates one frame header. Every failure is
// closed and descriptive: bad magic, unsupported version, corrupt CRC, and
// oversized length each name what was found.
func ParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, fmt.Errorf("wire: truncated frame header: %d of %d bytes", len(b), HeaderSize)
	}
	if !bytes.Equal(b[0:4], magic[:]) {
		return h, fmt.Errorf("wire: bad frame magic %q (want %q): stream is not the bashsim wire protocol or desynchronized", b[0:4], magic[:])
	}
	if want, got := binary.BigEndian.Uint32(b[16:20]), crc32.ChecksumIEEE(b[0:16]); want != got {
		return h, fmt.Errorf("wire: corrupt frame header: CRC %08x, computed %08x", want, got)
	}
	h.Version = b[4]
	if h.Version != Version {
		return h, fmt.Errorf("wire: unsupported protocol version %d (this build speaks %d)", h.Version, Version)
	}
	h.Type = b[5]
	if h.Type == 0 || h.Type >= frameTypeEnd {
		return h, fmt.Errorf("wire: unknown frame type %d", h.Type)
	}
	h.Flags = binary.BigEndian.Uint16(b[6:8])
	h.Stream = binary.BigEndian.Uint32(b[8:12])
	n := binary.BigEndian.Uint32(b[12:16])
	if n > MaxPayload {
		return h, fmt.Errorf("wire: frame payload of %d bytes exceeds the %d-byte bound", n, MaxPayload)
	}
	h.Length = int(n)
	return h, nil
}

// bufPool recycles message-encode scratch buffers across frames and
// connections (the dist codec appends into these, writes the frame, and
// returns them).
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// GetBuffer returns a reusable zero-length scratch buffer.
func GetBuffer() *[]byte { b := bufPool.Get().(*[]byte); *b = (*b)[:0]; return b }

// PutBuffer returns a buffer obtained from GetBuffer to the pool.
func PutBuffer(b *[]byte) {
	if b != nil && cap(*b) <= MaxPayload {
		bufPool.Put(b)
	}
}

// coalesceMax is the largest frame assembled into one contiguous write;
// larger raw payloads are written with vectored I/O instead of copying.
const coalesceMax = 4096

// Writer frames and writes messages. It is safe for concurrent use: one
// mutex serializes frames, which is also what keeps the shared compression
// context coherent across a worker's slot streams.
type Writer struct {
	// NoCompress disables FlagDeflate frames (benchmarks compare raw
	// framing; set it before the first WriteFrame and never change it).
	NoCompress bool

	mu   sync.Mutex
	w    io.Writer
	out  []byte        // reused frame-assembly buffer
	comp *flate.Writer // per-connection context takeover; created lazily
	cbuf bytes.Buffer  // compressed-payload scratch

	frames, bytes atomic.Uint64
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Stats reports frames and bytes written so far (header bytes included).
func (w *Writer) Stats() (frames, bytes uint64) {
	return w.frames.Load(), w.bytes.Load()
}

// compressible reports whether a frame type's payload may be deflated:
// data frames only, never the handshake.
func compressible(typ byte) bool { return typ >= FrameLease }

// WriteFrame writes one frame with the given payload segments (concatenated
// in order; segments let large gob blobs pass through without an
// intermediate copy). Flags are augmented with FlagDeflate when the payload
// is compressed.
func (w *Writer) WriteFrame(typ byte, flags uint16, stream uint32, segs ...[]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()

	total := 0
	for _, s := range segs {
		total += len(s)
	}
	if total > MaxPayload {
		return fmt.Errorf("wire: %s payload of %d bytes exceeds the %d-byte bound", TypeName(typ), total, MaxPayload)
	}

	var hdr [HeaderSize]byte
	if compressible(typ) && !w.NoCompress && total >= CompressMin {
		w.cbuf.Reset()
		if w.comp == nil {
			// One flate stream per connection: never Reset, so every
			// frame's payload extends the shared dictionary.
			w.comp, _ = flate.NewWriter(&w.cbuf, flate.BestSpeed)
		}
		for _, s := range segs {
			if _, err := w.comp.Write(s); err != nil {
				return fmt.Errorf("wire: deflate: %w", err)
			}
		}
		if err := w.comp.Flush(); err != nil {
			return fmt.Errorf("wire: deflate flush: %w", err)
		}
		w.out = w.out[:0]
		w.out = binary.AppendUvarint(w.out, uint64(total))
		prefix := len(w.out)
		putHeader(&hdr, Header{Version: Version, Type: typ, Flags: flags | FlagDeflate, Stream: stream, Length: prefix + w.cbuf.Len()})
		w.out = append(w.out[:0], hdr[:]...)
		w.out = binary.AppendUvarint(w.out, uint64(total))
		w.out = append(w.out, w.cbuf.Bytes()...)
		return w.flush(w.out)
	}

	putHeader(&hdr, Header{Version: Version, Type: typ, Flags: flags, Stream: stream, Length: total})
	if total <= coalesceMax {
		// Coalesce small frames into one write: Go sets TCP_NODELAY, so
		// separate header/payload writes would each become a packet.
		w.out = append(w.out[:0], hdr[:]...)
		for _, s := range segs {
			w.out = append(w.out, s...)
		}
		return w.flush(w.out)
	}
	bufs := make(net.Buffers, 0, len(segs)+1)
	bufs = append(bufs, hdr[:])
	for _, s := range segs {
		if len(s) > 0 {
			bufs = append(bufs, s)
		}
	}
	n, err := bufs.WriteTo(w.w)
	w.bytes.Add(uint64(n))
	if err != nil {
		return fmt.Errorf("wire: write %s frame: %w", TypeName(typ), err)
	}
	w.frames.Add(1)
	return nil
}

func (w *Writer) flush(b []byte) error {
	n, err := w.w.Write(b)
	w.bytes.Add(uint64(n))
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	w.frames.Add(1)
	return nil
}

// Reader decodes frames from a stream. Not safe for concurrent use (one
// reader goroutine per connection); Stats may be read from anywhere.
type Reader struct {
	r    io.Reader
	err  error // sticky: a failed stream stays failed
	hdr  [HeaderSize]byte
	pbuf bytes.Buffer  // on-wire payload, reused
	raw  []byte        // decompressed payload, reused
	fed  bytes.Buffer  // compressed bytes pending inflation
	infl io.ReadCloser // per-connection inflate context; created lazily

	frames, bytes atomic.Uint64
}

// NewReader returns a Reader decoding frames from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Stats reports frames and bytes read so far (header bytes included).
func (r *Reader) Stats() (frames, bytes uint64) {
	return r.frames.Load(), r.bytes.Load()
}

// ReadFrame reads and validates the next frame, returning its header and
// decompressed payload. The payload is only valid until the next call. A
// cleanly closed stream returns io.EOF; every other failure is a
// descriptive, terminal error — the decoder never panics, and once a
// stream has failed it stays failed rather than resynchronizing on
// whatever bytes follow the corruption.
func (r *Reader) ReadFrame() (Header, []byte, error) {
	if r.err != nil {
		return Header{}, nil, r.err
	}
	h, payload, err := r.readFrame()
	if err != nil {
		r.err = err
	}
	return h, payload, err
}

func (r *Reader) readFrame() (Header, []byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return Header{}, nil, io.EOF
		}
		return Header{}, nil, fmt.Errorf("wire: truncated frame header: %w", err)
	}
	h, err := ParseHeader(r.hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	// CopyN into the reused buffer grows it only as far as data actually
	// arrives, so a crafted header cannot force a MaxPayload allocation.
	r.pbuf.Reset()
	if n, err := io.CopyN(&r.pbuf, r.r, int64(h.Length)); err != nil {
		return Header{}, nil, fmt.Errorf("wire: truncated %s payload: %d of %d bytes: %w", TypeName(h.Type), n, h.Length, err)
	}
	r.frames.Add(1)
	r.bytes.Add(uint64(HeaderSize + h.Length))
	payload := r.pbuf.Bytes()

	if h.Flags&FlagDeflate == 0 {
		return h, payload, nil
	}
	rawLen, n := binary.Uvarint(payload)
	if n <= 0 {
		return Header{}, nil, fmt.Errorf("wire: %s frame: malformed deflate raw-length prefix", TypeName(h.Type))
	}
	if rawLen > MaxPayload {
		return Header{}, nil, fmt.Errorf("wire: %s frame: deflated payload of %d bytes exceeds the %d-byte bound", TypeName(h.Type), rawLen, MaxPayload)
	}
	r.fed.Write(payload[n:])
	if r.infl == nil {
		r.infl = flate.NewReader(&r.fed)
	}
	if cap(r.raw) < int(rawLen) {
		r.raw = make([]byte, rawLen)
	}
	out := r.raw[:rawLen]
	if _, err := io.ReadFull(r.infl, out); err != nil {
		return Header{}, nil, fmt.Errorf("wire: %s frame: inflate: %w", TypeName(h.Type), err)
	}
	return h, out, nil
}

// ErrNotWire lets callers distinguish "peer does not speak this protocol"
// (a misconfigured address or a mismatched build) from transient
// connection failures.
var ErrNotWire = errors.New("wire: peer does not speak the bashsim wire protocol")
