package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// writeFrame writes one frame the way a peer's writer does: length prefix
// and body in a single Write.
func writeFrame(w io.Writer, body []byte) error {
	_, err := w.Write(appendFrame(nil, body))
	return err
}

// readFrames runs the read loop's frame reader over r until it fails and
// returns a copy of every body it produced, with the error that ended it
// (io.EOF for a stream that ends between two frames).
func readFrames(r io.Reader) ([][]byte, error) {
	var bodies [][]byte
	for frames := newFrameReader(r); ; {
		body, err := frames.next()
		if err != nil {
			return bodies, err
		}
		bodies = append(bodies, bytes.Clone(body))
	}
}

// FuzzReadFrame feeds arbitrary byte streams to the read loop's frame
// reader: it must never panic, the frames it accepts must re-encode to a
// prefix of the input, and it must cut the stream the same way when the
// bytes arrive one at a time.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                // truncated header
	f.Add([]byte{0, 0, 0, 0})             // empty frame
	f.Add([]byte{0, 0, 0, 5, 'h', 'i'})   // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // oversize header
	var exact [frameHeaderSize]byte
	binary.BigEndian.PutUint32(exact[:], maxFrameSize)
	f.Add(exact[:]) // max-size header, no body
	valid := appendFrame(nil, []byte(`{"from":1,"type":"t","body":{}}`))
	f.Add(valid)
	f.Add(append(appendFrame(valid, make([]byte, readBufSize)), valid...)) // in place, allocated, in place
	f.Fuzz(func(t *testing.T, data []byte) {
		bodies, _ := readFrames(bytes.NewReader(data))
		var reencoded []byte
		for _, body := range bodies {
			reencoded = appendFrame(reencoded, body)
		}
		if !bytes.HasPrefix(data, reencoded) {
			t.Fatalf("the %d accepted frames do not re-encode to a prefix of the input", len(bodies))
		}
		trickled, _ := readFrames(iotest.OneByteReader(bytes.NewReader(data)))
		if !reflect.DeepEqual(trickled, bodies) {
			t.Fatalf("read byte by byte the stream gave %d frames, at once %d", len(trickled), len(bodies))
		}
	})
}

// FuzzFrameRoundTrip checks appendFrame→frameReader is bit-exact for any
// body, whichever side of the read-buffer size it falls on.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add([]byte{wordFrameTag, 0, 1, 2, 3})
	f.Add(make([]byte, readBufSize-frameHeaderSize))   // the largest frame read in place
	f.Add(make([]byte, readBufSize-frameHeaderSize+1)) // the smallest allocated one
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := newFrameReader(bytes.NewReader(appendFrame(nil, body))).next()
		if err != nil {
			t.Fatalf("frame reader failed on a written frame: %v", err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("round trip corrupted body: wrote %d bytes, read %d", len(body), len(got))
		}
	})
}

// FuzzWordFrame checks the compact payload codec: decoding never panics, and
// every accepted frame re-encodes to the identical bytes.
func FuzzWordFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{wordFrameTag})
	f.Add(appendWordFrame(nil, 7, protocol.WordPayload(protocol.KindUpdateSeq, 42)))
	f.Fuzz(func(t *testing.T, data []byte) {
		from, p, err := decodeWordFrame(data)
		if err != nil {
			return
		}
		if !bytes.Equal(appendWordFrame(nil, from, p), data) {
			t.Fatalf("accepted word frame did not re-encode identically")
		}
	})
}

// TestFrameSizeBoundary pins the exact limit on the read side: a frame of
// maxFrameSize bytes is read whole, a length prefix one byte larger is
// rejected. (TestTCPOversizeSendRejected pins the send side.)
func TestFrameSizeBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 16 MiB frames")
	}
	got, err := newFrameReader(bytes.NewReader(appendFrame(nil, make([]byte, maxFrameSize)))).next()
	if err != nil {
		t.Fatalf("frame of exactly maxFrameSize unreadable: %v", err)
	}
	if len(got) != maxFrameSize {
		t.Fatalf("read %d bytes, want %d", len(got), maxFrameSize)
	}

	var header [frameHeaderSize]byte
	binary.BigEndian.PutUint32(header[:], maxFrameSize+1)
	if _, err := newFrameReader(bytes.NewReader(header[:])).next(); err == nil {
		t.Error("frame reader accepted an oversize header")
	} else if !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversize header error = %v, want size-limit error", err)
	}
}

// TestWordFrameCodec covers the decoder's explicit rejections.
func TestWordFrameCodec(t *testing.T) {
	p := protocol.WordPayload(protocol.KindUpdateSeq, 1<<40)
	frame := appendWordFrame(nil, -3, p)
	if len(frame) != wordFrameSize {
		t.Fatalf("word frame is %d bytes, want %d", len(frame), wordFrameSize)
	}
	from, got, err := decodeWordFrame(frame)
	if err != nil || from != -3 || got != p {
		t.Fatalf("round trip = (%d, %+v, %v), want (-3, %+v, nil)", from, got, err, p)
	}
	if _, _, err := decodeWordFrame(frame[:wordFrameSize-1]); err == nil {
		t.Error("truncated word frame accepted")
	}
	if _, _, err := decodeWordFrame(append(frame, 0)); err == nil {
		t.Error("oversize word frame accepted")
	}
	boxed := appendWordFrame(nil, 1, protocol.Payload{Kind: protocol.KindBoxed, Word: 9})
	if _, _, err := decodeWordFrame(boxed); err == nil {
		t.Error("word frame with boxed kind accepted")
	}
}
