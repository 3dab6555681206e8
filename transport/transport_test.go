package transport

import (
	"sync"
	"testing"
	"time"

	"github.com/szte-dcs/tokenaccount/protocol"
)

type testPayload struct {
	Value int `json:"value"`
}

type otherPayload struct {
	Name string `json:"name"`
}

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	Register[testPayload](r, "test")
	data, err := r.encode(7, testPayload{Value: 42})
	if err != nil {
		t.Fatal(err)
	}
	from, payload, err := r.decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if from != 7 {
		t.Errorf("from = %d, want 7", from)
	}
	got, ok := payload.(testPayload)
	if !ok || got.Value != 42 {
		t.Errorf("payload = %#v", payload)
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	Register[testPayload](r, "test")
	if _, err := r.encode(1, otherPayload{Name: "x"}); err == nil {
		t.Error("unregistered payload encoded")
	}
	if _, _, err := r.decode([]byte("{not json")); err == nil {
		t.Error("bad envelope decoded")
	}
	if _, _, err := r.decode([]byte(`{"from":1,"type":"unknown","body":{}}`)); err == nil {
		t.Error("unknown type decoded")
	}
	if _, _, err := r.decode([]byte(`{"from":1,"type":"test","body":"notanobject"}`)); err == nil {
		t.Error("mismatched body decoded")
	}
}

// collector buffers received messages behind a mutex for test assertions.
type collector struct {
	mu   sync.Mutex
	msgs []protocol.Payload
	from []protocol.NodeID
}

func (c *collector) handler(from protocol.NodeID, payload protocol.Payload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.from = append(c.from, from)
	c.msgs = append(c.msgs, payload)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *collector) waitFor(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.count() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages (have %d)", n, c.count())
}

func TestTCPEndpointRoundTrip(t *testing.T) {
	registry := NewRegistry()
	Register[testPayload](registry, "test")

	a, err := NewTCPEndpoint(1, "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint(2, "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())

	var onB, onA collector
	b.SetPayloadHandler(onB.handler)
	a.SetPayloadHandler(onA.handler)

	for i := 0; i < 5; i++ {
		if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: i})); err != nil {
			t.Fatal(err)
		}
	}
	onB.waitFor(t, 5, 2*time.Second)
	if err := b.SendPayload(1, protocol.BoxPayload(testPayload{Value: 99})); err != nil {
		t.Fatal(err)
	}
	onA.waitFor(t, 1, 2*time.Second)

	onB.mu.Lock()
	if onB.from[0] != 1 || onB.msgs[0].Box.(testPayload).Value != 0 {
		t.Errorf("first message on B = from %d %#v", onB.from[0], onB.msgs[0])
	}
	onB.mu.Unlock()
	if a.id != 1 {
		t.Error("ID accessor wrong")
	}
}

func TestTCPEndpointErrors(t *testing.T) {
	registry := NewRegistry()
	Register[testPayload](registry, "test")
	if _, err := NewTCPEndpoint(1, "127.0.0.1:0", nil); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := NewTCPEndpoint(1, "256.0.0.1:99999", registry); err == nil {
		t.Error("bad address accepted")
	}
	e, err := NewTCPEndpoint(1, "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SendPayload(9, protocol.BoxPayload(testPayload{})); err == nil {
		t.Error("send to unknown peer should error")
	}
	if err := e.SendPayload(9, protocol.BoxPayload(otherPayload{})); err == nil {
		t.Error("unregistered payload should error")
	}
	e.AddPeer(9, "127.0.0.1:1") // nothing listens there
	// Sends are asynchronous: the first send is accepted onto the peer's
	// queue, the writer's dial fails, and once the backoff window opens
	// subsequent sends fast-fail with an error.
	deadline := time.Now().Add(2 * time.Second)
	var sendErr error
	for time.Now().Before(deadline) && sendErr == nil {
		sendErr = e.SendPayload(9, protocol.BoxPayload(testPayload{}))
		time.Sleep(2 * time.Millisecond)
	}
	if sendErr == nil {
		t.Error("send to unreachable peer should eventually error (backoff fast-fail)")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
	if err := e.SendPayload(9, protocol.BoxPayload(testPayload{})); err == nil {
		t.Error("send after close should error")
	}
}

func TestTCPEndpointSurvivesPeerRestart(t *testing.T) {
	registry := NewRegistry()
	Register[testPayload](registry, "test")
	a, err := NewTCPEndpoint(1, "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint(2, "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a.AddPeer(2, addr)
	var got collector
	b.SetPayloadHandler(got.handler)
	if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: 1})); err != nil {
		t.Fatal(err)
	}
	got.waitFor(t, 1, 2*time.Second)
	// Kill B; the next send from A fails (possibly after one buffered write),
	// and once B is back on the same address sends succeed again.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: 2})); err != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	b2, err := NewTCPEndpoint(2, addr, registry)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer b2.Close()
	var got2 collector
	b2.SetPayloadHandler(got2.handler)
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && got2.count() == 0 {
		_ = a.SendPayload(2, protocol.BoxPayload(testPayload{Value: 3}))
		time.Sleep(10 * time.Millisecond)
	}
	if got2.count() == 0 {
		t.Error("no message delivered after peer restart")
	}
}

// TestTCPEndpointUntypedAdapters pins Send and SetHandler, the untyped
// adapters over SendPayload and SetPayloadHandler: a value sent with Send
// arrives as itself, a word payload as the protocol.Payload, undecoded.
func TestTCPEndpointUntypedAdapters(t *testing.T) {
	registry := NewRegistry()
	Register[testPayload](registry, "test")
	a, b := newTCPPair(t, registry, peerQueueSize)
	var mu sync.Mutex
	var got []any
	b.SetHandler(func(from protocol.NodeID, v any) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, v)
	})
	word := protocol.WordPayload(protocol.PayloadKind(1001), 9)
	if err := a.Send(2, testPayload{Value: 5}); err != nil {
		t.Fatal(err)
	}
	if err := a.SendPayload(2, word); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "both messages", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0] != (testPayload{Value: 5}) {
		t.Errorf("Send delivered %#v, want testPayload{Value: 5}", got[0])
	}
	if got[1] != word {
		t.Errorf("word payload delivered as %#v, want %#v", got[1], word)
	}
}
