package transport

import "sync/atomic"

// Stats is a snapshot of a transport endpoint's operational counters. All
// counters are cumulative since the endpoint was created, except the *Depth
// and *Connected gauges, which reflect the moment of the snapshot. Its byte
// counters are socket bytes; the modeled payload bytes of a node's messages
// (protocol.PayloadSize) are counted once, by the runtime.Host that sends
// them. The tokennode ops endpoint serves these as Prometheus metrics.
type Stats struct {
	// Dials counts successful outgoing connection establishments.
	Dials int64
	// DialFailures counts failed dial attempts (including fast-failed
	// attempts suppressed by the backoff window).
	DialFailures int64
	// Reconnects counts successful dials that replaced a previously
	// established connection to the same peer (Dials includes them).
	Reconnects int64
	// FramesSent and FramesReceived count frames that completed a write or a
	// read on a socket.
	FramesSent     int64
	FramesReceived int64
	// Writes counts completed socket writes. A writer sends every frame that
	// is waiting for its peer in one write, so FramesSent / Writes is the
	// batching factor.
	Writes int64
	// BytesSent and BytesReceived count wire bytes, including the 4-byte
	// frame headers.
	BytesSent     int64
	BytesReceived int64
	// SendsShed counts outgoing messages discarded because the destination
	// peer's bounded outbound queue was full: the transport sheds load
	// instead of blocking the protocol tick behind a slow peer.
	SendsShed int64
	// SendErrors counts outgoing messages lost to connection failures after
	// the write path exhausted its single redial retry, plus messages
	// abandoned while the peer's backoff window was open.
	SendErrors int64
	// DecodeErrors counts incoming frames that could not be decoded (corrupt
	// envelope or word frame, unknown payload type).
	DecodeErrors int64
	// Disconnects counts connection teardowns observed outside Close: read
	// loops ending on a peer hangup or decode error, and outgoing
	// connections whose monitor saw the peer go away.
	Disconnects int64
	// QueueDepth is the total number of frames accepted into per-peer
	// outbound queues and not yet written to a socket.
	QueueDepth int64
	// PeersConnected is the number of peers with an established outgoing
	// connection.
	PeersConnected int64
}

// counters is the atomic backing store behind Stats snapshots.
type counters struct {
	dials, dialFailures, reconnects atomic.Int64
	framesSent, framesReceived      atomic.Int64
	writes                          atomic.Int64
	bytesSent, bytesReceived        atomic.Int64
	sendsShed, sendErrors           atomic.Int64
	decodeErrors, disconnects       atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Dials:          c.dials.Load(),
		DialFailures:   c.dialFailures.Load(),
		Reconnects:     c.reconnects.Load(),
		FramesSent:     c.framesSent.Load(),
		FramesReceived: c.framesReceived.Load(),
		Writes:         c.writes.Load(),
		BytesSent:      c.bytesSent.Load(),
		BytesReceived:  c.bytesReceived.Load(),
		SendsShed:      c.sendsShed.Load(),
		SendErrors:     c.sendErrors.Load(),
		DecodeErrors:   c.decodeErrors.Load(),
		Disconnects:    c.disconnects.Load(),
	}
}
