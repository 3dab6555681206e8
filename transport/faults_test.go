package transport

import (
	"testing"
	"time"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// TestTCPDestinationCrashMidStream streams messages at a TCP peer that
// closes mid-stream and checks that the sender survives: sends before the
// crash arrive, sends after it fail or vanish without wedging the endpoint,
// and the sender can still reach other peers afterwards.
func TestTCPDestinationCrashMidStream(t *testing.T) {
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
	c, err := NewTCPEndpoint(3, "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a.AddPeer(2, b.Addr())
	a.AddPeer(3, c.Addr())

	var onB, onC collector
	b.SetPayloadHandler(onB.handler)
	c.SetPayloadHandler(onC.handler)

	// Stream from a separate goroutine, crashing B once a round trip's worth
	// of messages has arrived.
	crashed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			// Errors are expected once B is gone; the endpoint must keep
			// accepting sends regardless.
			_ = a.SendPayload(2, protocol.BoxPayload(testPayload{Value: i}))
			time.Sleep(time.Millisecond / 4)
		}
	}()
	onB.waitFor(t, 20, 2*time.Second)
	received := onB.count()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	close(crashed)
	<-done
	<-crashed

	if received < 20 {
		t.Fatalf("only %d messages arrived before the crash", received)
	}
	// The sender must still reach a healthy peer over a fresh connection.
	if err := a.SendPayload(3, protocol.BoxPayload(testPayload{Value: 1000})); err != nil {
		t.Fatalf("send to healthy peer after crash: %v", err)
	}
	onC.waitFor(t, 1, 2*time.Second)
	onC.mu.Lock()
	defer onC.mu.Unlock()
	if onC.msgs[0].Box.(testPayload).Value != 1000 || onC.from[0] != protocol.NodeID(1) {
		t.Errorf("message on C = from %d %#v", onC.from[0], onC.msgs[0])
	}
}
