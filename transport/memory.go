package transport

import (
	"fmt"
	"sync"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/protocol"
)

// MemoryBus connects any number of in-process endpoints. Messages are
// delivered asynchronously by a per-endpoint delivery goroutine, in the order
// they reach the endpoint and with no artificial delay: a caller that wants
// latency (live.Env's EnvConfig.Latency) holds the message back before
// sending it. The zero value is not usable; call NewMemoryBus.
type MemoryBus struct {
	mu        sync.RWMutex
	endpoints map[protocol.NodeID]*MemoryEndpoint
	closed    bool

	// Fault injection (see BusOption): an independent per-message loss
	// lottery and a set of directed blocked links. Both are consulted in
	// route, so faults strike messages in transit.
	faultRNG *rng.Source
	dropProb float64
	blocked  map[link]struct{}

	// delivered counts successfully enqueued messages; dropped counts
	// messages addressed to missing or closed endpoints and messages
	// discarded by fault injection.
	delivered int64
	dropped   int64
}

// link is a directed sender→receiver pair.
type link struct {
	from, to protocol.NodeID
}

// BusOption configures fault injection on a MemoryBus. The zero
// configuration (no options) is a fully reliable bus, as before. No command
// injects faults yet: the options, Block and Unblock stay exported as
// fixtures for seeded loss and partition testing of the live stack, which the
// transport tests drive today.
type BusOption func(*MemoryBus)

// WithDropProbability makes the bus lose each message independently with
// probability p. The lottery draws from a deterministic generator seeded
// with seed, so a single-threaded test replays the identical drop pattern on
// every run; under concurrent senders the per-message decisions interleave
// with scheduling, but the drawn sequence itself is still fixed by the seed.
func WithDropProbability(p float64, seed uint64) BusOption {
	if !(p >= 0 && p <= 1) { // NaN fails both comparisons
		panic(fmt.Sprintf("transport: drop probability %v outside [0,1]", p))
	}
	return func(b *MemoryBus) {
		b.dropProb = p
		b.faultRNG = rng.New(seed)
	}
}

// WithPartition blocks the directed link from→to from the start (see
// Block). Apply it twice with swapped arguments for a symmetric partition.
func WithPartition(from, to protocol.NodeID) BusOption {
	return func(b *MemoryBus) { b.blocked[link{from, to}] = struct{}{} }
}

// NewMemoryBus returns a bus that delivers every message as soon as its
// destination's delivery goroutine takes it. Options inject deterministic
// faults; by default the bus is reliable.
func NewMemoryBus(opts ...BusOption) *MemoryBus {
	b := &MemoryBus{
		endpoints: make(map[protocol.NodeID]*MemoryEndpoint),
		blocked:   make(map[link]struct{}),
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Block cuts the directed link from→to: messages sent along it are dropped
// (and counted as such) until Unblock. Blocking both directions partitions
// the pair. It is safe to call while the bus is in use, so tests can open
// and heal partitions mid-run.
func (b *MemoryBus) Block(from, to protocol.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blocked[link{from, to}] = struct{}{}
}

// Unblock heals the directed link from→to.
func (b *MemoryBus) Unblock(from, to protocol.NodeID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.blocked, link{from, to})
}

// Endpoint creates (or returns the existing) endpoint for the given node ID.
func (b *MemoryBus) Endpoint(id protocol.NodeID) (*MemoryEndpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if ep, ok := b.endpoints[id]; ok {
		return ep, nil
	}
	ep := &MemoryEndpoint{
		bus:   b,
		id:    id,
		queue: make(chan queuedMessage, 1024),
		done:  make(chan struct{}),
	}
	go ep.deliverLoop()
	b.endpoints[id] = ep
	return ep, nil
}

// stats returns the number of delivered and dropped messages so far.
func (b *MemoryBus) stats() (delivered, dropped int64) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.delivered, b.dropped
}

// Close shuts down every endpoint.
func (b *MemoryBus) Close() error {
	b.mu.Lock()
	endpoints := make([]*MemoryEndpoint, 0, len(b.endpoints))
	for _, ep := range b.endpoints {
		endpoints = append(endpoints, ep)
	}
	b.closed = true
	b.mu.Unlock()
	for _, ep := range endpoints {
		_ = ep.Close()
	}
	return nil
}

func (b *MemoryBus) route(from, to protocol.NodeID, payload protocol.Payload) {
	b.mu.RLock()
	_, cut := b.blocked[link{from, to}]
	lottery := b.dropProb > 0
	ep, ok := b.endpoints[to]
	closed := b.closed
	b.mu.RUnlock()
	if cut || !ok || closed {
		b.countDrop()
		return
	}
	if lottery && b.drawDrop() {
		b.countDrop()
		return
	}
	if !ep.enqueue(queuedMessage{from: from, payload: payload}) {
		b.countDrop()
		return
	}
	b.mu.Lock()
	b.delivered++
	b.mu.Unlock()
}

func (b *MemoryBus) countDrop() {
	b.mu.Lock()
	b.dropped++
	b.mu.Unlock()
}

// drawDrop runs the loss lottery. Only an actual draw takes the write lock
// (it advances the generator); the fault-free hot path never reaches here,
// so reliable buses pay nothing beyond route's existing read lock.
func (b *MemoryBus) drawDrop() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.faultRNG.Float64() < b.dropProb
}

type queuedMessage struct {
	from    protocol.NodeID
	payload protocol.Payload
}

// MemoryEndpoint is one node's attachment to a MemoryBus. It implements
// Transport: payloads reach the destination's handler as they were sent.
type MemoryEndpoint struct {
	bus   *MemoryBus
	id    protocol.NodeID
	queue chan queuedMessage
	done  chan struct{}

	mu      sync.RWMutex
	handler PayloadHandler
	closed  bool
}

var _ Transport = (*MemoryEndpoint)(nil)

// SetPayloadHandler implements Transport.
func (e *MemoryEndpoint) SetPayloadHandler(h PayloadHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// SendPayload implements Transport: the payload is routed through the bus to
// the destination endpoint.
func (e *MemoryEndpoint) SendPayload(to protocol.NodeID, payload protocol.Payload) error {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	e.bus.route(e.id, to, payload)
	return nil
}

// Close implements Transport. It is idempotent.
func (e *MemoryEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	e.mu.Unlock()
	return nil
}

func (e *MemoryEndpoint) enqueue(m queuedMessage) bool {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return false
	}
	select {
	case e.queue <- m:
		return true
	default:
		// The endpoint's queue is full; drop rather than block the sender,
		// mirroring how an overloaded UDP-like channel would behave.
		return false
	}
}

func (e *MemoryEndpoint) deliverLoop() {
	for {
		select {
		case <-e.done:
			return
		case m := <-e.queue:
			e.mu.RLock()
			h := e.handler
			e.mu.RUnlock()
			if h != nil {
				h(m.from, m.payload)
			}
		}
	}
}

// String identifies the endpoint in logs.
func (e *MemoryEndpoint) String() string { return fmt.Sprintf("memory-endpoint(%d)", e.id) }
