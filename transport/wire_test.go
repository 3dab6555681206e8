package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// newTCPPair returns endpoint 1, whose per-peer queues hold peerQueue
// frames, with endpoint 2 registered as its peer.
func newTCPPair(t *testing.T, registry *Registry, peerQueue int) (a, b *TCPEndpoint) {
	t.Helper()
	a, err := newTCPEndpoint(1, "127.0.0.1:0", registry, peerQueue)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = NewTCPEndpoint(2, "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	a.AddPeer(2, b.Addr())
	return a, b
}

// TestTCPWriterCoalesces fills a link's queue before its writer exists, then
// lets the writer run: everything that accumulated must leave in one socket
// write and arrive once, in order, and the frame past the bound must be shed.
// Marking the link started is what holds the writer back: the kernel
// completes a loopback connect whether or not the peer accepts, so nothing on
// the destination's side can.
func TestTCPWriterCoalesces(t *testing.T) {
	const k = 64
	a, b := newTCPPair(t, NewRegistry(), k)
	var mu sync.Mutex
	var words []uint64
	b.SetPayloadHandler(func(from protocol.NodeID, p protocol.Payload) {
		mu.Lock()
		defer mu.Unlock()
		words = append(words, p.Word)
	})
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(words)
	}

	l := a.links[2]
	l.mu.Lock()
	l.started = true
	l.mu.Unlock()
	for i := 0; i <= k; i++ {
		if err := a.SendPayload(2, protocol.WordPayload(protocol.KindUpdateSeq, uint64(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if s := a.Stats(); s.SendsShed != 1 || s.QueueDepth != k || s.FramesSent != 0 {
		t.Fatalf("before the writer runs: shed %d, queue depth %d, frames sent %d; want 1, %d, 0",
			s.SendsShed, s.QueueDepth, s.FramesSent, k)
	}
	a.wg.Add(1)
	go l.writeLoop()

	waitUntil(t, 2*time.Second, "the queued frames", func() bool { return received() == k })
	waitUntil(t, 2*time.Second, "the queue to empty", func() bool { return a.Stats().QueueDepth == 0 })
	time.Sleep(20 * time.Millisecond) // a duplicate would arrive right behind
	mu.Lock()
	for i, w := range words {
		if w != uint64(i) {
			t.Fatalf("frame %d carries word %d: reordered, duplicated or lost", i, w)
		}
	}
	if len(words) != k {
		t.Errorf("%d frames arrived, want %d", len(words), k)
	}
	mu.Unlock()
	s := a.Stats()
	if s.FramesSent != k || s.Writes != 1 || s.BytesSent != k*(frameHeaderSize+wordFrameSize) {
		t.Errorf("frames sent %d in %d writes, %d bytes; want %d frames in 1 write, %d bytes",
			s.FramesSent, s.Writes, s.BytesSent, k, k*(frameHeaderSize+wordFrameSize))
	}
	if s.SendsShed != 1 || s.SendErrors != 0 {
		t.Errorf("shed %d, send errors %d; want 1, 0", s.SendsShed, s.SendErrors)
	}

	// A lone frame behind the batch is not held back for company.
	if err := a.SendPayload(2, protocol.WordPayload(protocol.KindUpdateSeq, k)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "the lone frame", func() bool { return received() == k+1 })
	if s := a.Stats(); s.Writes != 2 || s.FramesSent != k+1 {
		t.Errorf("after a lone frame: %d frames in %d writes, want %d in 2", s.FramesSent, s.Writes, k+1)
	}
}

// decoded is what the read loop hands on for one frame.
type decoded struct {
	From    protocol.NodeID
	Payload protocol.Payload
	Err     string
}

// decodeStream is the read loop without the socket and the counters: frame
// reader, then frame decoder, frame after frame. It carries on past a body
// that does not decode (the read loop hangs up there) so that one stream can
// cover those too.
func decodeStream(r io.Reader, registry *Registry) []decoded {
	var out []decoded
	for frames := newFrameReader(r); ; {
		body, err := frames.next()
		if err != nil {
			return out
		}
		from, p, err := registry.decodeFrame(body)
		if err != nil {
			out = append(out, decoded{Err: err.Error()})
			continue
		}
		out = append(out, decoded{From: from, Payload: p})
	}
}

// chunkReader returns the stream in pieces of random size, some larger than
// the read buffer.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), 1+c.rng.Intn(3*readBufSize))])
}

// TestFrameStreamReassembly checks that the frames the read loop decodes do
// not depend on how the byte stream is cut into reads.
func TestFrameStreamReassembly(t *testing.T) {
	registry := NewRegistry()
	Register[testPayload](registry, "test")
	Register[string](registry, "pad")
	// envelope returns a pad envelope of exactly size bytes.
	envelope := func(size int) []byte {
		empty, err := registry.encode(3, "")
		if err != nil {
			t.Fatal(err)
		}
		body, err := registry.encode(3, strings.Repeat("x", size-len(empty)))
		if err != nil || len(body) != size {
			t.Fatalf("pad envelope of %d bytes: got %d, %v", size, len(body), err)
		}
		return body
	}
	small, err := registry.encode(2, testPayload{Value: 7})
	if err != nil {
		t.Fatal(err)
	}
	word := appendWordFrame(nil, 5, protocol.WordPayload(protocol.KindUpdateSeq, 99))
	bodies := [][]byte{
		word,
		small,
		{},                                      // empty: shorter than any valid frame
		word[:wordFrameSize-1],                  // a truncated word frame: framed, not decodable
		envelope(readBufSize - frameHeaderSize), // the largest frame read in place
		word,                                    // right behind a full buffer
		envelope(readBufSize - frameHeaderSize + 1), // the smallest allocated one
		small,
		envelope(5 * readBufSize),
		word,
		word,
	}
	var stream []byte
	for _, body := range bodies {
		stream = appendFrame(stream, body)
	}

	want := decodeStream(bytes.NewReader(stream), registry)
	if len(want) != len(bodies) {
		t.Fatalf("read at once the stream gave %d frames, want %d", len(want), len(bodies))
	}
	for i, d := range want {
		if undecodable := i == 2 || i == 3; (d.Err != "") != undecodable {
			t.Errorf("frame %d: decode error %q", i, d.Err)
		}
	}
	if want[0].From != 5 || want[0].Payload != protocol.WordPayload(protocol.KindUpdateSeq, 99) {
		t.Errorf("word frame decoded to %+v", want[0])
	}
	if v, _ := want[8].Payload.Box.(string); len(v) < 4*readBufSize {
		t.Errorf("large envelope decoded to %d pad bytes", len(v))
	}

	if got := decodeStream(iotest.OneByteReader(bytes.NewReader(stream)), registry); !reflect.DeepEqual(got, want) {
		t.Errorf("byte by byte: decoded %d frames differently from the %d read at once", len(got), len(want))
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := &chunkReader{r: bytes.NewReader(stream), rng: rand.New(rand.NewSource(seed))}
		if got := decodeStream(r, registry); !reflect.DeepEqual(got, want) {
			t.Errorf("random chunks, seed %d: decoded %d frames differently from the %d read at once", seed, len(got), len(want))
		}
	}
}

// TestWordFrameReceiveAllocs guards the receive path: word frames are cut
// from the read buffer and decoded in place.
func TestWordFrameReceiveAllocs(t *testing.T) {
	const runs = 1000
	var stream []byte
	for i := 0; i <= runs; i++ { // AllocsPerRun makes one extra warm-up call
		stream = appendFrame(stream, appendWordFrame(nil, 4, protocol.WordPayload(protocol.KindUpdateSeq, uint64(i))))
	}
	registry := NewRegistry()
	frames := newFrameReader(bytes.NewReader(stream))
	var sum uint64
	allocs := testing.AllocsPerRun(runs, func() {
		body, err := frames.next()
		if err != nil {
			t.Fatal(err)
		}
		_, p, err := registry.decodeFrame(body)
		if err != nil {
			t.Fatal(err)
		}
		sum += p.Word
	})
	if allocs != 0 {
		t.Errorf("receiving a word frame allocates %.1f, want 0", allocs)
	}
	if sum != runs*(runs+1)/2 {
		t.Errorf("decoded words sum to %d, want %d", sum, runs*(runs+1)/2)
	}
}

// TestSendPayloadAllocs guards the send path end to end: on a warm link a
// word payload goes from SendPayload through the pending buffer, the writer,
// the socket and the peer's read loop to its handler without a heap
// allocation anywhere in the process.
func TestSendPayloadAllocs(t *testing.T) {
	a, b := newTCPPair(t, NewRegistry(), peerQueueSize)
	var got atomic.Int64
	b.SetPayloadHandler(func(protocol.NodeID, protocol.Payload) { got.Add(1) })
	sent := int64(0)
	send := func() {
		if err := a.SendPayload(2, protocol.WordPayload(protocol.KindUpdateSeq, 1)); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	arrived := func() bool { return got.Load() == sent }
	// Warm up in bursts, so that both of the link's buffers have grown.
	for burst := 0; burst < 4; burst++ {
		for i := 0; i < peerQueueSize/2; i++ {
			send()
		}
		waitUntil(t, 2*time.Second, "the warm-up frames", arrived)
	}
	// AllocsPerRun counts the whole process and rounds the mean down, so a
	// stray allocation elsewhere is forgiven and one per send is not.
	if allocs := testing.AllocsPerRun(peerQueueSize/2, send); allocs != 0 {
		t.Errorf("SendPayload of a word payload allocates %.1f, want 0", allocs)
	}
	waitUntil(t, 2*time.Second, "the measured frames", arrived)
	if s := a.Stats(); s.SendsShed != 0 || s.SendErrors != 0 {
		t.Errorf("shed %d, send errors %d; want 0, 0", s.SendsShed, s.SendErrors)
	}
}

// TestTCPOversizeSendRejected is the regression test for oversize frames
// reaching the writer, which took the refused write for a stale connection:
// it dropped a healthy connection, redialled, failed again and dropped that
// one too. The send must fail in the caller and leave the link alone.
func TestTCPOversizeSendRejected(t *testing.T) {
	registry := NewRegistry()
	Register[testPayload](registry, "test")
	Register[bigPayload](registry, "big")
	a, b := newTCPPair(t, registry, peerQueueSize)
	var got collector
	b.SetPayloadHandler(got.handler)
	if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: 1})); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, 2*time.Second)

	huge := bigPayload{Data: make([]byte, maxFrameSize*3/4+1)} // base64 takes it past the limit
	if err := a.SendPayload(2, protocol.BoxPayload(huge)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("SendPayload of an oversize payload = %v, want a size-limit error", err)
	}

	if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: 2})); err != nil {
		t.Fatalf("send after the rejected one: %v", err)
	}
	got.waitFor(t, 2, 2*time.Second)
	// The writer counts a frame after its write returns, which can be after
	// the receiver has handled it.
	waitUntil(t, 2*time.Second, "the second frame's count", func() bool { return a.Stats().FramesSent >= 2 })
	s := a.Stats()
	if s.Disconnects != 0 || s.Reconnects != 0 || s.Dials != 1 || s.SendErrors != 0 || s.FramesSent != 2 {
		t.Errorf("after an oversize send: disconnects %d, reconnects %d, dials %d, send errors %d, frames sent %d; want 0, 0, 1, 0, 2",
			s.Disconnects, s.Reconnects, s.Dials, s.SendErrors, s.FramesSent)
	}
	if s := b.Stats(); s.Disconnects != 0 {
		t.Errorf("receiver saw %d disconnects, want 0", s.Disconnects)
	}
}

// TestTCPStalledLargeFrameStaysSmall connects, announces a frame of the
// maximum size and sends nothing more: the endpoint must wait for the body
// without setting the announced size aside.
func TestTCPStalledLargeFrameStaysSmall(t *testing.T) {
	e, err := NewTCPEndpoint(1, "127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()

	const stalled = 4
	var header [frameHeaderSize]byte
	binary.BigEndian.PutUint32(header[:], maxFrameSize)
	for i := 0; i < stalled; i++ {
		conn, err := net.Dial("tcp", e.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(header[:]); err != nil {
			t.Fatal(err)
		}
	}
	// A complete frame sent afterwards on one more connection shows the
	// endpoint alive; the stalled headers, written before it, have been read
	// by then or are read within the settle time below.
	probe, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if err := writeFrame(probe, appendWordFrame(nil, 9, protocol.WordPayload(protocol.KindUpdateSeq, 1))); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "the probe frame", func() bool { return e.Stats().FramesReceived == 1 })
	time.Sleep(50 * time.Millisecond)

	if grown := int64(heap()) - int64(before); grown > stalled*maxFrameSize/16 {
		t.Errorf("heap grew %d KiB holding %d stalled %d MiB announcements", grown>>10, stalled, maxFrameSize>>20)
	}
	if s := e.Stats(); s.Disconnects != 0 {
		t.Errorf("%d disconnects: a stalled connection was dropped, not held", s.Disconnects)
	}
}
