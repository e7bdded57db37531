package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/wire"
)

// Every message is one frame: a 4-byte big-endian body length followed by
// the body. The body is encoded with the shared wire codec and is
// self-contained — a reader can join, drop, or replay a stream at any frame
// boundary, and a corrupted frame poisons nothing beyond itself:
//
//	version  1 byte, wire.Version
//	kind     1 byte: 1 call, 2 notify, 3 reply
//	ID       uvarint (0 on notifies)
//	From     length-prefixed string
//	Deadline varint Unix nanoseconds, 0 for none
//	payload  tagged message: Req on calls and notifies, Resp on replies
//
// Payload types must be in the wire tag table; the protocol layer
// registers its types (internal/cluster does this in wire.go, once, for
// the WAL and the wire together).

// Frame kinds.
const (
	// kindCall is a request that expects exactly one kindReply with the
	// same ID on the same connection.
	kindCall = 1 + iota
	// kindNotify is fire-and-forget: ID 0, never answered.
	kindNotify
	// kindReply answers one kindCall.
	kindReply
)

// MaxFrame bounds one frame's body. A peer announcing a larger body is
// malformed (or malicious) and fails decoding before any allocation.
const MaxFrame = 8 << 20

// Frame is one wire message. A call or notify carries Req, a reply Resp;
// the other payload field must be nil.
type Frame struct {
	Kind     int
	ID       uint64
	From     string
	Req      any
	Resp     any
	Deadline time.Time
}

// DecodeError is the typed failure for any malformed inbound frame: a
// corrupt length prefix, an over-limit announcement, a truncated body, a
// body in an unknown format version, or one that does not decode. It is a
// decoding verdict, never a panic — the fuzz harness holds the codec to
// that.
type DecodeError struct {
	Reason string
	Err    error // underlying cause, when one exists
}

func (e *DecodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("tcp: bad frame: %s: %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("tcp: bad frame: %s", e.Reason)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// EncodeFrame serializes one frame body (no length prefix) into a new
// slice the caller owns. It fails only on frames no peer could decode — an
// unknown kind, a payload in the wrong field, or a payload type or value
// the wire codec refuses — which is a programming error surfaced to the
// caller, not hidden in transit.
func EncodeFrame(f Frame) ([]byte, error) {
	return appendFrame(make([]byte, 0, 128), f)
}

// appendFrame appends the encoded body of f to dst.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	payload, other := f.Req, f.Resp
	switch f.Kind {
	case kindCall, kindNotify:
	case kindReply:
		payload, other = f.Resp, f.Req
	default:
		return nil, fmt.Errorf("tcp: encode frame: unknown frame kind %d", f.Kind)
	}
	if other != nil {
		return nil, fmt.Errorf("tcp: encode frame: kind %d frame carries a payload in the wrong field", f.Kind)
	}
	start := len(dst)
	e := wire.NewEncoder(dst)
	e.Byte(wire.Version)
	e.Byte(byte(f.Kind))
	e.Uvarint(f.ID)
	e.String(f.From)
	var deadline int64
	if !f.Deadline.IsZero() {
		deadline = f.Deadline.UnixNano()
	}
	e.Varint(deadline)
	e.Message(payload)
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("tcp: encode frame: %w", err)
	}
	b := e.Bytes()
	if len(b)-start > MaxFrame {
		return nil, fmt.Errorf("tcp: encode frame: body %d exceeds MaxFrame", len(b)-start)
	}
	return b, nil
}

// DecodeFrame reverses EncodeFrame. Every failure is a *DecodeError. The
// decoded frame shares no memory with b.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) > MaxFrame {
		return Frame{}, &DecodeError{Reason: fmt.Sprintf("body %d exceeds MaxFrame", len(b))}
	}
	d := wire.NewDecoder(b)
	d.CheckVersion()
	f := Frame{Kind: int(d.Byte()), ID: d.Uvarint(), From: d.String()}
	if ns := d.Varint(); ns != 0 {
		f.Deadline = time.Unix(0, ns)
	}
	if err := d.Err(); err != nil {
		return Frame{}, &DecodeError{Reason: "envelope", Err: err}
	}
	switch f.Kind {
	case kindCall, kindNotify:
		f.Req = d.Message()
	case kindReply:
		f.Resp = d.Message()
	default:
		return Frame{}, &DecodeError{Reason: fmt.Sprintf("unknown frame kind %d", f.Kind)}
	}
	if err := d.Finish(); err != nil {
		return Frame{}, &DecodeError{Reason: "payload", Err: err}
	}
	return f, nil
}

// framePool recycles outbound frame buffers: a frame is encoded behind its
// length prefix into one buffer and written with a single Write, and the
// buffer is done with once that Write returns.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// encodeFramed encodes f, length prefix included, into a buffer from
// framePool. The caller returns the buffer to the pool after writing it.
func encodeFramed(f Frame) (*[]byte, error) {
	buf := framePool.Get().(*[]byte)
	b, err := appendFrame(append((*buf)[:0], 0, 0, 0, 0), f)
	if err != nil {
		framePool.Put(buf)
		return nil, err
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	*buf = b
	return buf, nil
}

// putFramed returns a written frame buffer to framePool, unless a rare
// large frame grew it past what is worth keeping.
func putFramed(buf *[]byte) {
	if cap(*buf) <= maxReusedBody {
		framePool.Put(buf)
	}
}

// frameReader reads length-prefixed frames from one connection. The
// connection is wrapped in a bufio.Reader, so a small frame costs one read
// syscall or none, and one body buffer is reused across frames. Decoding
// copies everything out of that buffer, so a frame stays valid after the
// next read.
type frameReader struct {
	r    io.Reader
	body []byte
}

// maxReusedBody bounds the body buffer a connection keeps between frames;
// a rare larger frame gets a buffer of its own.
const maxReusedBody = 64 << 10

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(conn)}
}

// next reads one frame. io.EOF at a frame boundary is returned as-is (a
// clean connection close); everything else malformed is a *DecodeError.
func (fr *frameReader) next() (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, &DecodeError{Reason: "short header", Err: err}
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return Frame{}, &DecodeError{Reason: fmt.Sprintf("announced body %d exceeds MaxFrame", n)}
	}
	body := fr.body
	switch {
	case n <= cap(body):
		body = body[:n]
	case n <= maxReusedBody:
		fr.body = make([]byte, max(n, 512))
		body = fr.body[:n]
	default:
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return Frame{}, &DecodeError{Reason: "short body", Err: err}
	}
	return DecodeFrame(body)
}
