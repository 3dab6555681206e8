package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// maxFrameSize bounds a single message on the wire (16 MiB). SendPayload
// refuses a larger frame before it is queued; a larger length prefix arriving
// from a peer indicates a protocol error or an attack and closes the
// connection.
const maxFrameSize = 16 << 20

// frameHeaderSize is the wire overhead of one frame: the 4-byte big-endian
// length prefix.
const frameHeaderSize = 4

// appendFrame appends the wire form of one frame, length prefix then body.
// The caller has checked len(body) against maxFrameSize.
func appendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

const (
	// readBufSize is the per-connection read buffer. One read fills it with
	// up to 81 word frames; it stays small because a full mesh holds one per
	// accepted connection (240 in a 16-node mesh).
	readBufSize = 2 << 10
	// largeFrameChunk is what a frame too large for the read buffer may
	// reserve on the strength of its length prefix alone; beyond it the body
	// grows only as its bytes arrive.
	largeFrameChunk = 64 << 10
)

// frameReader cuts a byte stream into frames through a fixed-size buffer:
// one read of the underlying connection brings in as many frames as have
// arrived, and a frame that fits the buffer is returned in place.
type frameReader struct {
	br   *bufio.Reader
	held int // buffered bytes of the frame returned last, released by the next call
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufSize)}
}

// next returns the body of the next frame. The slice is valid until the
// following call: it aliases the read buffer unless the frame is larger than
// the buffer, in which case it is allocated — growing as the bytes arrive, so
// that a peer which announces a large frame and stalls pins largeFrameChunk,
// not the announced size.
func (fr *frameReader) next() ([]byte, error) {
	_, _ = fr.br.Discard(fr.held) // cannot fail: these bytes are buffered
	fr.held = 0
	header, err := fr.br.Peek(frameHeaderSize)
	if err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(header))
	if size > maxFrameSize {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", size)
	}
	if total := frameHeaderSize + size; total <= fr.br.Size() {
		frame, err := fr.br.Peek(total)
		if err != nil {
			return nil, err
		}
		fr.held = total
		return frame[frameHeaderSize:], nil
	}
	_, _ = fr.br.Discard(frameHeaderSize)
	var body bytes.Buffer
	// The spare MinRead lets Buffer.ReadFrom see the end of the frame
	// without growing once more.
	body.Grow(min(size, largeFrameChunk) + bytes.MinRead)
	if _, err := io.CopyN(&body, fr.br, int64(size)); err != nil {
		return nil, err
	}
	return body.Bytes(), nil
}

// The TCP wire carries two frame families, discriminated by the first byte of
// the frame body:
//
//   - JSON envelope frames start with '{' (the wireEnvelope encoding used
//     since the first TCP transport) and carry boxed payloads registered in a
//     Registry.
//   - Word frames start with wordFrameTag and carry a word-encoded
//     protocol.Payload verbatim: tag, sender ID, payload kind, payload word,
//     21 bytes total. The paper applications and blockcast word-encode every
//     message, so their traffic crosses real sockets without reflection,
//     JSON, or per-message allocation on the encode side.
//
// The discriminator is unambiguous: wordFrameTag is not a valid first byte of
// any JSON document.
const (
	wordFrameTag  = 0x01
	wordFrameSize = 1 + 8 + 4 + 8
)

// appendWordFrame encodes a word payload into the compact binary frame.
func appendWordFrame(dst []byte, from protocol.NodeID, p protocol.Payload) []byte {
	var buf [wordFrameSize]byte
	buf[0] = wordFrameTag
	binary.BigEndian.PutUint64(buf[1:9], uint64(int64(from)))
	binary.BigEndian.PutUint32(buf[9:13], uint32(p.Kind))
	binary.BigEndian.PutUint64(buf[13:21], p.Word)
	return append(dst, buf[:]...)
}

// decodeWordFrame decodes a frame produced by appendWordFrame.
func decodeWordFrame(data []byte) (protocol.NodeID, protocol.Payload, error) {
	if len(data) != wordFrameSize || data[0] != wordFrameTag {
		return 0, protocol.Payload{}, fmt.Errorf("transport: malformed word frame (%d bytes)", len(data))
	}
	from := protocol.NodeID(int64(binary.BigEndian.Uint64(data[1:9])))
	kind := protocol.PayloadKind(binary.BigEndian.Uint32(data[9:13]))
	if kind == protocol.KindBoxed {
		return 0, protocol.Payload{}, fmt.Errorf("transport: word frame with boxed kind")
	}
	word := binary.BigEndian.Uint64(data[13:21])
	return from, protocol.WordPayload(kind, word), nil
}

// decodeFrame decodes a frame body of either family into its sender and
// typed payload: word frames as word payloads, envelope frames boxed. It keeps
// no reference to body.
func (r *Registry) decodeFrame(body []byte) (protocol.NodeID, protocol.Payload, error) {
	if len(body) > 0 && body[0] == wordFrameTag {
		return decodeWordFrame(body)
	}
	from, v, err := r.decode(body)
	if err != nil {
		return 0, protocol.Payload{}, err
	}
	return from, protocol.BoxPayload(v), nil
}
