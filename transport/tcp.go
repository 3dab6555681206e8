package transport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// The managed endpoint's fixed tunables. They are deliberately LAN-flavoured:
// the deployment target is a localhost or datacenter fleet of tokennode
// daemons. A peer's outbound queue holds up to peerQueueSize frames
// accepted and not yet written to its socket; when it is full, further sends
// to that peer are shed, never blocking the caller, and counted in
// Stats.SendsShed. After a failed dial the peer's link fast-fails sends for a
// jittered, exponentially growing span between backoffMin and backoffMax.
const (
	peerQueueSize = 256
	dialTimeout   = 2 * time.Second
	backoffMin    = 50 * time.Millisecond
	backoffMax    = 1 * time.Second
)

// maxIdleBuf is the largest frame buffer a link keeps between batches; one
// that grew beyond it (a burst of large envelope frames) is released once
// written instead of staying pinned to the peer.
const maxIdleBuf = 64 << 10

// TCPEndpoint is a Transport over TCP with managed per-peer connections: each
// peer gets its own bounded outbound queue drained by a dedicated writer, so
// one slow or dead peer never serializes sends to the others. A writer sends
// everything that accumulated while it was busy in a single socket write and
// never waits for more, so a lone frame leaves at once and a backlog costs
// one system call, not one per frame; the receiving side reads through a
// small per-connection buffer and decodes word frames in place. Writers dial
// on demand, redial with capped exponential backoff plus jitter, retry a
// batch once over a fresh connection when a cached connection turns out
// stale, and shed load (counted, never blocking) when a peer's queue fills.
// Outgoing connections are monitored for peer hangup, so a restarted peer is
// redialed on the first send after the restart instead of losing it to a
// stale socket.
//
// Boxed payloads must be of a type registered in a Registry shared by all
// participating processes; word-encoded payloads travel in a compact binary
// frame and need no registration (see codec.go).
//
// Delivery remains best-effort: if a peer cannot be reached the message is
// dropped, which is exactly the failure model the token account protocol is
// designed to tolerate — but every loss is counted in Stats.
type TCPEndpoint struct {
	id       protocol.NodeID
	registry *Registry
	listener net.Listener
	// peerQueue is the per-peer queue bound: peerQueueSize, except in tests.
	peerQueue int

	mu       sync.Mutex
	handler  PayloadHandler
	links    map[protocol.NodeID]*peerLink
	accepted map[net.Conn]struct{}
	closed   bool
	closedCh chan struct{}
	wg       sync.WaitGroup

	stats counters
}

var _ Transport = (*TCPEndpoint)(nil)

// NewTCPEndpoint starts listening on addr (e.g. "127.0.0.1:0") and returns
// the endpoint. The registry must contain every boxed payload type that will
// be sent or received; word-encoded payloads bypass it.
func NewTCPEndpoint(id protocol.NodeID, addr string, registry *Registry) (*TCPEndpoint, error) {
	return newTCPEndpoint(id, addr, registry, peerQueueSize)
}

// newTCPEndpoint is NewTCPEndpoint with a per-peer queue bound of its own.
func newTCPEndpoint(id protocol.NodeID, addr string, registry *Registry, peerQueue int) (*TCPEndpoint, error) {
	if registry == nil {
		return nil, fmt.Errorf("transport: nil registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		id:        id,
		registry:  registry,
		listener:  ln,
		peerQueue: peerQueue,
		links:     make(map[protocol.NodeID]*peerLink),
		accepted:  make(map[net.Conn]struct{}),
		closedCh:  make(chan struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the actual listening address (useful with ":0").
func (e *TCPEndpoint) Addr() string { return e.listener.Addr().String() }

// Stats returns a snapshot of the endpoint's operational counters plus the
// current queue-depth and connected-peer gauges.
func (e *TCPEndpoint) Stats() Stats {
	s := e.stats.snapshot()
	e.mu.Lock()
	links := make([]*peerLink, 0, len(e.links))
	for _, l := range e.links {
		links = append(links, l)
	}
	e.mu.Unlock()
	for _, l := range links {
		queued, connected := l.gauges()
		s.QueueDepth += int64(queued)
		if connected {
			s.PeersConnected++
		}
	}
	return s
}

// AddPeer registers (or re-registers) the address of a peer node so that Send
// can reach it. Re-registering an existing peer updates its address; the next
// dial uses it.
//
// An existing link's address is updated after e.mu is released: setAddr takes
// l.mu, and a link's first send acquires e.mu while holding l.mu (see start),
// so taking l.mu under e.mu here would be an ABBA deadlock against a
// concurrent send. The lock order is l.mu → e.mu throughout.
func (e *TCPEndpoint) AddPeer(id protocol.NodeID, addr string) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	l, ok := e.links[id]
	if !ok {
		e.links[id] = newPeerLink(e, id, addr)
	}
	e.mu.Unlock()
	if ok {
		l.setAddr(addr)
	}
}

// RemovePeer forgets a peer: its queued frames are discarded, its connection
// closed and subsequent sends to it fail. Used by the daemon's leave path.
func (e *TCPEndpoint) RemovePeer(id protocol.NodeID) {
	e.mu.Lock()
	l := e.links[id]
	delete(e.links, id)
	e.mu.Unlock()
	if l != nil {
		l.stop()
	}
}

// peers returns the IDs of the currently registered peers.
func (e *TCPEndpoint) peers() []protocol.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]protocol.NodeID, 0, len(e.links))
	for id := range e.links {
		ids = append(ids, id)
	}
	return ids
}

// SetPayloadHandler implements Transport: it replaces the handler for all
// subsequent deliveries.
func (e *TCPEndpoint) SetPayloadHandler(h PayloadHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// SetHandler installs h as the payload handler: a boxed payload reaches it as
// its Box, a word payload as the protocol.Payload itself. Only the benchmark
// module (bench/) calls it; it goes once the benchmark moves to
// SetPayloadHandler.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.SetPayloadHandler(func(from protocol.NodeID, p protocol.Payload) {
		if p.Kind == protocol.KindBoxed {
			h(from, p.Box)
		} else {
			h(from, p)
		}
	})
}

// Send is SendPayload of the boxed payload.
func (e *TCPEndpoint) Send(to protocol.NodeID, payload any) error {
	return e.SendPayload(to, protocol.BoxPayload(payload))
}

// SendPayload implements Transport: word-encoded payloads travel in the
// compact binary frame, boxed ones in the registry envelope, and the frame is
// enqueued on the destination peer's outbound queue. Errors are local only —
// closed endpoint, unknown peer, unregistered payload type, a frame above the
// 16 MiB limit, or a peer whose backoff window is open; a full queue sheds
// the message (counted in Stats) and reports success, because shedding is the
// designed response to a slow peer, not a caller error.
func (e *TCPEndpoint) SendPayload(to protocol.NodeID, p protocol.Payload) error {
	if p.Kind == protocol.KindBoxed {
		data, err := e.registry.encode(e.id, p.Box)
		if err != nil {
			return err
		}
		return e.enqueue(to, data)
	}
	var frame [wordFrameSize]byte // stays on the stack: enqueue copies it
	return e.enqueue(to, appendWordFrame(frame[:0], e.id, p))
}

// enqueue routes an encoded frame body onto the destination's bounded queue.
// An oversize frame is the caller's mistake and is refused here, before it
// can reach the writer and be mistaken for a failed connection.
func (e *TCPEndpoint) enqueue(to protocol.NodeID, body []byte) error {
	if len(body) > maxFrameSize {
		return fmt.Errorf("transport: frame of %d bytes for node %d exceeds the %d-byte limit", len(body), to, maxFrameSize)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	l, ok := e.links[to]
	e.mu.Unlock()
	if !ok {
		return errUnknownPeer(to)
	}
	return l.enqueue(body)
}

func errUnknownPeer(id protocol.NodeID) error {
	return fmt.Errorf("transport: no address known for node %d", id)
}

// Close implements Transport.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.closedCh)
	links := make([]*peerLink, 0, len(e.links))
	for _, l := range e.links {
		links = append(links, l)
	}
	conns := make([]net.Conn, 0, len(e.accepted))
	for c := range e.accepted {
		conns = append(conns, c)
	}
	e.mu.Unlock()

	err := e.listener.Close()
	for _, l := range links {
		l.stop()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	e.wg.Wait()
	return err
}

func (e *TCPEndpoint) isClosed() bool {
	select {
	case <-e.closedCh:
		return true
	default:
		return false
	}
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.accepted[conn] = struct{}{}
		e.wg.Add(1)
		e.mu.Unlock()
		go func() {
			defer e.wg.Done()
			defer func() {
				e.mu.Lock()
				delete(e.accepted, conn)
				e.mu.Unlock()
			}()
			e.readLoop(conn)
		}()
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer conn.Close()
	frames := newFrameReader(conn)
	for {
		body, err := frames.next()
		if err != nil {
			break // peer hangup, or a frame violation
		}
		e.stats.framesReceived.Add(1)
		e.stats.bytesReceived.Add(int64(len(body)) + frameHeaderSize)
		from, p, err := e.registry.decodeFrame(body)
		if err != nil {
			// Undecodable peers are disconnected; the protocol tolerates the
			// lost messages — but the failure and the disconnect are counted,
			// so silent drops show up on the ops surface instead of
			// vanishing.
			e.stats.decodeErrors.Add(1)
			break
		}
		e.deliverIncoming(from, p)
	}
	// The disconnect is counted unless we are the ones shutting down.
	if !e.isClosed() {
		e.stats.disconnects.Add(1)
	}
}

// deliverIncoming hands a decoded payload to the installed handler.
func (e *TCPEndpoint) deliverIncoming(from protocol.NodeID, p protocol.Payload) {
	e.mu.Lock()
	h, closed := e.handler, e.closed
	e.mu.Unlock()
	if h != nil && !closed {
		h(from, p)
	}
}

// peerLink is the managed outgoing side of one peer: a bounded buffer of
// pending frames, a dedicated writer goroutine (started on first use), the
// current connection, and the reconnect backoff state.
type peerLink struct {
	ep     *TCPEndpoint
	id     protocol.NodeID
	notify chan struct{} // 1 slot: the queue went from empty to non-empty
	stopc  chan struct{}

	mu         sync.Mutex
	pending    []byte // wire form of the frames the writer has not taken yet
	queued     int    // frames in pending plus frames in the batch being written
	addr       string
	started    bool
	stopped    bool
	conn       net.Conn
	everDialed bool
	backoff    time.Duration
	downUntil  time.Time
}

func newPeerLink(e *TCPEndpoint, id protocol.NodeID, addr string) *peerLink {
	return &peerLink{
		ep:     e,
		id:     id,
		addr:   addr,
		notify: make(chan struct{}, 1),
		stopc:  make(chan struct{}),
	}
}

func (l *peerLink) setAddr(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if addr != l.addr {
		l.addr = addr
		// A re-addressed peer is assumed reachable at the new address.
		l.backoff = 0
		l.downUntil = time.Time{}
	}
}

// gauges returns the link's share of Stats.QueueDepth and whether it holds
// an established connection.
func (l *peerLink) gauges() (queued int, connected bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.queued, l.conn != nil
}

// enqueue appends one frame to the pending buffer under a single lock
// acquisition, which also covers the backoff, bound and lazy-start checks.
// Inside a reconnect backoff window with no established connection it
// fast-fails rather than queueing frames that the writer would immediately
// discard; at the bound it sheds.
func (l *peerLink) enqueue(body []byte) error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return errUnknownPeer(l.id) // lost a race with RemovePeer
	}
	if l.conn == nil && time.Now().Before(l.downUntil) {
		l.mu.Unlock()
		l.ep.stats.sendErrors.Add(1)
		return fmt.Errorf("transport: peer %d unreachable, backing off", l.id)
	}
	if l.queued >= l.ep.peerQueue {
		// The peer is slower than the offered load; shed rather than block
		// the caller (the protocol tick must never stall behind one peer).
		l.mu.Unlock()
		l.ep.stats.sendsShed.Add(1)
		return nil
	}
	if !l.started && !l.start() {
		l.mu.Unlock()
		return ErrClosed
	}
	l.pending = appendFrame(l.pending, body)
	l.queued++
	wake := l.queued == 1
	l.mu.Unlock()
	if wake {
		// The writer parks only after seeing an empty queue under l.mu, so
		// the send that makes it non-empty is the one that must wake it. A
		// token already in the slot serves as well.
		select {
		case l.notify <- struct{}{}:
		default:
		}
	}
	return nil
}

// start launches the writer goroutine on first use, so idle peers cost no
// goroutine. It reports false if the endpoint closed meanwhile. l.mu is held.
func (l *peerLink) start() bool {
	l.ep.mu.Lock()
	defer l.ep.mu.Unlock()
	if l.ep.closed {
		return false
	}
	l.ep.wg.Add(1)
	l.started = true
	go l.writeLoop()
	return true
}

// stop tears the link down: the writer exits, the connection closes, queued
// frames are discarded.
func (l *peerLink) stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	conn := l.conn
	l.conn = nil
	close(l.stopc)
	l.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// writeLoop is the link's writer. It swaps the pending buffer against its
// own (so senders keep appending while it writes), writes the whole batch at
// once, and repeats until nothing is pending; only then does it park. It
// never waits for a batch to fill.
func (l *peerLink) writeLoop() {
	defer l.ep.wg.Done()
	var batch []byte
	frames := 0
	for {
		if cap(batch) > maxIdleBuf {
			batch = nil
		}
		l.mu.Lock()
		l.queued -= frames // the previous batch has left the queue
		frames = l.queued
		batch, l.pending = l.pending, batch[:0]
		conn := l.conn
		l.mu.Unlock()
		if frames > 0 {
			l.deliver(conn, batch, frames)
			continue
		}
		select {
		case <-l.ep.closedCh:
			return
		case <-l.stopc:
			return
		case <-l.notify:
		}
	}
}

// deliver writes one batch of frames over conn, the link's connection when
// the batch was taken, dialling if there was none. A write failure on a
// cached connection means the connection went stale (the classic case: the
// peer restarted between two sends); the batch is retried exactly once over
// a fresh connection before its frames are declared lost, so a single-shot
// send around a peer restart is not silently swallowed by the dead socket.
// The retry resends the whole batch: a frame the dead connection did carry
// before failing arrives twice, which the protocol tolerates as it tolerates
// loss.
func (l *peerLink) deliver(conn net.Conn, batch []byte, frames int) {
	if conn == nil {
		conn = l.dial(false)
	}
	if conn != nil {
		if l.write(conn, batch, frames) == nil {
			return
		}
		l.dropConn(conn)
		if conn = l.dial(true); conn != nil {
			if l.write(conn, batch, frames) == nil {
				return
			}
			l.dropConn(conn)
		}
	}
	l.ep.stats.sendErrors.Add(int64(frames))
}

func (l *peerLink) write(conn net.Conn, batch []byte, frames int) error {
	if _, err := conn.Write(batch); err != nil {
		return err
	}
	l.ep.stats.writes.Add(1)
	l.ep.stats.framesSent.Add(int64(frames))
	l.ep.stats.bytesSent.Add(int64(len(batch)))
	return nil
}

// dial establishes a fresh connection, honouring the backoff window unless
// force is set (the single post-failure retry ignores it: the whole point is
// to probe whether the peer is back right now).
func (l *peerLink) dial(force bool) net.Conn {
	l.mu.Lock()
	addr := l.addr
	stopped := l.stopped
	if !force && time.Now().Before(l.downUntil) {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	if stopped || l.ep.isClosed() {
		return nil
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		l.ep.stats.dialFailures.Add(1)
		l.noteDialFailure()
		return nil
	}
	l.ep.stats.dials.Add(1)
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	if l.everDialed {
		l.ep.stats.reconnects.Add(1)
	}
	l.everDialed = true
	l.backoff = 0
	l.downUntil = time.Time{}
	l.conn = conn
	l.mu.Unlock()
	l.monitor(conn)
	return conn
}

// noteDialFailure advances the exponential backoff and opens a jittered
// fast-fail window: the delay doubles from backoffMin up to backoffMax, and
// each window spans a uniformly random fraction in [½, 1] of the current
// delay, so a fleet of reconnecting peers does not thundering-herd a
// restarted node.
func (l *peerLink) noteDialFailure() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.backoff == 0 {
		l.backoff = backoffMin
	} else {
		l.backoff *= 2
		if l.backoff > backoffMax {
			l.backoff = backoffMax
		}
	}
	window := l.backoff/2 + time.Duration(rand.Int63n(int64(l.backoff/2)+1))
	l.downUntil = time.Now().Add(window)
}

// dropConn discards a connection that failed a write: it is closed and, if
// still the link's current connection, cleared and counted as a disconnect.
// The monitor goroutine's own clearConn then finds nothing to do, so each
// teardown is counted exactly once.
func (l *peerLink) dropConn(conn net.Conn) {
	if l.clearConn(conn) && !l.ep.isClosed() {
		l.ep.stats.disconnects.Add(1)
	}
	_ = conn.Close()
}

// clearConn clears the link's current connection if it is conn, reporting
// whether it was.
func (l *peerLink) clearConn(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == conn {
		l.conn = nil
		return true
	}
	return false
}

// monitor watches an outgoing connection for peer hangup. Outgoing
// connections never receive data (the wire protocol is one-directional per
// connection), so a completed Read means the peer closed or reset — the
// stale connection is dropped immediately instead of poisoning the next
// send, which is how a restarted peer gets a fresh dial on the very first
// message after its restart.
func (l *peerLink) monitor(conn net.Conn) {
	l.ep.mu.Lock()
	if l.ep.closed {
		l.ep.mu.Unlock()
		return
	}
	l.ep.wg.Add(1)
	l.ep.mu.Unlock()
	go func() {
		defer l.ep.wg.Done()
		var buf [1]byte
		_, _ = conn.Read(buf[:])
		if l.clearConn(conn) && !l.ep.isClosed() {
			l.ep.stats.disconnects.Add(1)
		}
		_ = conn.Close()
	}()
}
