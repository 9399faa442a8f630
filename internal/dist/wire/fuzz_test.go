package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzFrameDecoder drives ReadFrame over arbitrary byte streams: the
// decoder must never panic, must terminate, and every rejection must carry
// a descriptive error (fail closed — a malformed stream kills the
// connection, it never yields a frame). Valid prefixes decode normally;
// the properties are checked frame by frame until the stream errors out.
func FuzzFrameDecoder(f *testing.F) {
	seed := func(typ byte, flags uint16, stream uint32, payload []byte) []byte {
		var hdr [HeaderSize]byte
		putHeader(&hdr, Header{Version: Version, Type: typ, Flags: flags, Stream: stream, Length: len(payload)})
		return append(hdr[:], payload...)
	}
	// A healthy frame, then each malformed shape the decoder must reject.
	f.Add(seed(FrameLease, 0, 1, []byte("lease me")))
	f.Add(seed(FrameHello, 0, 0, nil))
	f.Add(seed(FrameResult, 0, 3, []byte("result"))[:HeaderSize-1]) // truncated header
	f.Add(seed(FrameGrant, 0, 2, []byte("grant"))[:HeaderSize+2])   // truncated payload
	f.Add([]byte("GET /dist/lease HTTP/1.1\r\n\r\n"))               // bad magic: HTTP on the wire port
	bad := seed(FrameHeartbeat, 0, 4, nil)
	bad[4] = 42 // wrong version
	binary.BigEndian.PutUint32(bad[16:20], crc32.ChecksumIEEE(bad[0:16]))
	f.Add(bad)
	huge := seed(FrameResult, 0, 5, nil)
	binary.BigEndian.PutUint32(huge[12:16], MaxPayload+1) // oversized length
	binary.BigEndian.PutUint32(huge[16:20], crc32.ChecksumIEEE(huge[0:16]))
	f.Add(huge)
	crc := seed(FrameResult, 0, 6, []byte("x"))
	crc[18] ^= 0x55 // corrupt CRC
	f.Add(crc)
	f.Add(seed(FrameResult, FlagDeflate, 7, []byte{0x05, 0xFF, 0xFF})) // bogus deflate body
	// Cell-exchange frames: a healthy FETCH/CELL pair, a truncated ADVERT
	// payload, and the first type past the table (must be rejected).
	f.Add(seed(FrameFetch, 0, 8, []byte("\x04cell")))
	f.Add(seed(FrameCell, 0, 8, []byte("\x01\x03raw")))
	f.Add(seed(FrameAdvert, 0, 0, []byte("advert"))[:HeaderSize+1])
	unknown := seed(frameTypeEnd, 0, 10, nil)
	binary.BigEndian.PutUint32(unknown[16:20], crc32.ChecksumIEEE(unknown[0:16]))
	f.Add(unknown)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		// Each frame consumes >= HeaderSize bytes, so this terminates.
		for i := 0; i <= len(data)/HeaderSize+1; i++ {
			h, payload, err := r.ReadFrame()
			if err == io.EOF {
				return // clean end of stream
			}
			if err != nil {
				if err.Error() == "" {
					t.Fatal("decoder failed without a descriptive error")
				}
				// Fail closed: a stream that errored must keep erroring,
				// never resynchronize into yielding frames.
				if _, _, err2 := r.ReadFrame(); err2 == nil {
					t.Fatal("decoder yielded a frame after a terminal error")
				}
				return
			}
			if h.Length > MaxPayload || len(payload) > MaxPayload {
				t.Fatalf("decoder exceeded MaxPayload: header %d, payload %d", h.Length, len(payload))
			}
		}
		t.Fatal("decoder failed to consume the stream")
	})
}
