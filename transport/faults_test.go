package transport

import (
	"math"
	"testing"
	"time"

	"github.com/szte-dcs/tokenaccount/protocol"
)

func TestMemoryBusDropProbabilityOne(t *testing.T) {
	bus := NewMemoryBus(WithDropProbability(1, 42))
	defer bus.Close()
	a, _ := bus.Endpoint(1)
	b, _ := bus.Endpoint(2)
	var got collector
	b.SetPayloadHandler(got.handler)
	for i := 0; i < 20; i++ {
		if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: i})); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got.count() != 0 {
		t.Errorf("%d messages delivered despite drop probability 1", got.count())
	}
	delivered, dropped := bus.stats()
	if delivered != 0 || dropped != 20 {
		t.Errorf("Stats = (%d, %d), want (0, 20)", delivered, dropped)
	}
}

func TestMemoryBusDropProbabilityPanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithDropProbability(%v, ...) did not panic", p)
				}
			}()
			WithDropProbability(p, 1)
		}()
	}
}

// TestMemoryBusDropPatternDeterministic sends the same single-threaded
// message sequence over two buses with the same drop seed and checks that
// exactly the same messages survive.
func TestMemoryBusDropPatternDeterministic(t *testing.T) {
	run := func() []int {
		bus := NewMemoryBus(WithDropProbability(0.5, 7))
		defer bus.Close()
		a, _ := bus.Endpoint(1)
		b, _ := bus.Endpoint(2)
		var got collector
		b.SetPayloadHandler(got.handler)
		for i := 0; i < 100; i++ {
			if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: i})); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			delivered, dropped := bus.stats()
			if delivered+dropped == 100 && got.count() == int(delivered) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		got.mu.Lock()
		defer got.mu.Unlock()
		values := make([]int, 0, len(got.msgs))
		for _, m := range got.msgs {
			values = append(values, m.Box.(testPayload).Value)
		}
		return values
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) == 100 {
		t.Fatalf("drop lottery at p=0.5 delivered %d of 100 messages", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("two identical runs delivered %d vs %d messages", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("survivor %d differs: %d vs %d", i, first[i], second[i])
		}
	}
}

func TestMemoryBusDirectedPartition(t *testing.T) {
	bus := NewMemoryBus(WithPartition(1, 2))
	defer bus.Close()
	a, _ := bus.Endpoint(1)
	b, _ := bus.Endpoint(2)
	var onA, onB collector
	a.SetPayloadHandler(onA.handler)
	b.SetPayloadHandler(onB.handler)

	// 1→2 is cut, 2→1 still works: the partition is directed.
	if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: 1})); err != nil {
		t.Fatal(err)
	}
	if err := b.SendPayload(1, protocol.BoxPayload(testPayload{Value: 2})); err != nil {
		t.Fatal(err)
	}
	onA.waitFor(t, 1, time.Second)
	if onB.count() != 0 {
		t.Error("message crossed the blocked 1→2 link")
	}
	if _, dropped := bus.stats(); dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}

	// Healing the link restores delivery; cutting the reverse direction
	// blocks it independently.
	bus.Unblock(1, 2)
	bus.Block(2, 1)
	if err := a.SendPayload(2, protocol.BoxPayload(testPayload{Value: 3})); err != nil {
		t.Fatal(err)
	}
	if err := b.SendPayload(1, protocol.BoxPayload(testPayload{Value: 4})); err != nil {
		t.Fatal(err)
	}
	onB.waitFor(t, 1, time.Second)
	if onA.count() != 1 {
		t.Errorf("messages on A = %d, want 1 (2→1 is cut)", onA.count())
	}
}

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
