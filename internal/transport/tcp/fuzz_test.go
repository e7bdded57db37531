package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// FuzzEnvelope holds the frame codec to its two contracts: a well-formed
// frame round-trips exactly, and a malformed byte stream — truncated,
// bit-flipped, over-length, or adversarial — produces a typed *DecodeError
// (or a clean io.EOF at a frame boundary), never a panic.
func FuzzEnvelope(f *testing.F) {
	// Seed with real encoded frames of each kind…
	seedFrames := []Frame{
		{Kind: kindCall, ID: 1, From: "client-a", Req: echoReq{N: 7}, Deadline: time.Unix(1700000000, 0).UTC()},
		{Kind: kindNotify, From: "dm0", Req: echoReq{N: -1}},
		{Kind: kindReply, ID: 9, Resp: echoResp{N: 42}},
	}
	for _, fr := range seedFrames {
		body, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		// …and their length-prefixed stream forms.
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Adversarial seeds: an over-limit length announcement, a lying header.
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, MaxFrame+1)
	f.Add(huge)
	f.Add([]byte{0, 0, 0, 200, 1, 2, 3}) // announces 200 bytes, ships 3
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeFrame must return a frame or a *DecodeError — no panics,
		// no raw codec errors.
		if fr, err := DecodeFrame(data); err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("DecodeFrame error is %T, want *DecodeError: %v", err, err)
			}
		} else {
			// A frame that decodes must re-encode, and decode again to
			// the same wire meaning: the codec decodes only tagged types
			// and value kinds it can also encode.
			body, err := EncodeFrame(fr)
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			fr2, err := DecodeFrame(body)
			if err != nil {
				t.Fatalf("re-decode of re-encoded frame failed: %v", err)
			}
			if fr2.Kind != fr.Kind || fr2.ID != fr.ID || fr2.From != fr.From || !fr2.Deadline.Equal(fr.Deadline) {
				t.Fatalf("round trip changed envelope: %+v vs %+v", fr, fr2)
			}
		}

		// readFrame over the same bytes as a stream: frame, *DecodeError,
		// or io.EOF — never a panic, never a raw error.
		if _, err := readFrame(bytes.NewReader(data)); err != nil {
			var de *DecodeError
			if !errors.As(err, &de) && !errors.Is(err, io.EOF) {
				t.Fatalf("readFrame error is %T, want *DecodeError or io.EOF: %v", err, err)
			}
		}
	})
}

// TestEnvelopeRoundTrip is the deterministic companion of FuzzEnvelope:
// every frame kind survives the stream codec bit-for-bit in meaning.
func TestEnvelopeRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: kindCall, ID: 3, From: "c", Req: echoReq{N: 5}, Deadline: time.Now().Add(time.Second).Truncate(0)},
		{Kind: kindNotify, From: "dm1", Req: echoReq{N: 0}},
		{Kind: kindReply, ID: 3, Resp: echoResp{N: 6}},
	}
	var buf bytes.Buffer
	for _, fr := range frames {
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.ID != want.ID || got.From != want.From {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
		if !got.Deadline.Equal(want.Deadline) {
			t.Fatalf("frame %d deadline: %v != %v", i, got.Deadline, want.Deadline)
		}
	}
	if _, err := readFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end gave %v, want io.EOF", err)
	}
}

// TestFrameReaderCopiesOut reads two frames through one connection reader,
// which reuses its body buffer: the first frame's strings and bytes must
// survive the second read, and each frame must have been written with a
// single Write.
func TestFrameReaderCopiesOut(t *testing.T) {
	var stream bytes.Buffer
	w := &countingWriter{w: &stream}
	first := Frame{Kind: kindNotify, From: "peer-one", Req: noteReq{S: "first payload", V: []byte("first bytes")}}
	second := Frame{Kind: kindNotify, From: "peer-two", Req: noteReq{S: "SECOND PAYLOAD", V: []byte("SECOND BYTES")}}
	for _, f := range []Frame{first, second} {
		if err := writeFrame(w, f); err != nil {
			t.Fatal(err)
		}
	}
	if w.writes != 2 {
		t.Fatalf("two frames took %d writes, want one each", w.writes)
	}
	fr := newFrameReader(&stream)
	a, err := fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.next(); err != nil {
		t.Fatal(err)
	}
	got := a.Req.(noteReq)
	if a.From != "peer-one" || got.S != "first payload" || string(got.V.([]byte)) != "first bytes" {
		t.Fatalf("first frame changed after the next read: %+v", a)
	}
}

type countingWriter struct {
	w      io.Writer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

// writeFrame writes one length-prefixed frame to w the way the transport
// does: encoded behind its length prefix and sent in a single Write.
func writeFrame(w io.Writer, f Frame) error {
	buf, err := encodeFramed(f)
	if err != nil {
		return err
	}
	defer putFramed(buf)
	_, err = w.Write(*buf)
	return err
}

// readFrame reads one length-prefixed frame from r without buffering past
// it, so the next frame stays in r.
func readFrame(r io.Reader) (Frame, error) {
	return (&frameReader{r: r}).next()
}
