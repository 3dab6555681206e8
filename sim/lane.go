package sim

import (
	"cmp"
	"slices"
)

// hookEntry is one pending hook event held outside the queue: the
// (time, seq) key every event carries, plus the To/Word pair the hook's
// sink receives. 32 bytes, against the queue's 24-byte key plus 64-byte
// event.
type hookEntry struct {
	time float64
	seq  uint64
	word uint64
	to   int32
}

// hookLane is the FIFO ring of one hook's events (see
// Engine.ScheduleHookAt). Its invariant is that buf, read from head, is
// sorted by (time, seq) whenever the engine looks at it: entries pushed
// before the lane is first inspected are appended unordered and sorted once
// then (sorted flips), and afterwards the lane only accepts an entry that is
// not earlier than its tail — the caller routes any other through the queue.
// Because seq grows with every scheduling call, a tail-or-later time is
// enough to keep (time, seq) order.
//
// A lane is exactly 64 bytes, one size class and one cache line: the lanes
// of different shard engines are separate small heap objects, and a lane
// grown past 64 bytes would share a line with its neighbour's.
type hookLane struct {
	hook   Hook
	buf    []hookEntry // ring; len(buf) is zero or a power of two
	head   int
	n      int
	sorted bool
}

// LookaheadBatch is K, the lookahead batch size: every K pops of a lane
// that leave at least 2K entries in it, an engine with a Preloader hands it
// the To of the K entries that follow the next K, that is of the entries
// [head+K, head+2K) counted after the pop. Each entry is thus announced
// once, between K and 2K pops before it runs: far enough ahead for its
// loads to arrive, near enough that they are still cached when it does.
//
// The period needs no counter: K divides every ring length, and grow keeps
// head's offset modulo K, so a pop completes a period exactly when it leaves
// head at a multiple of K.
const LookaheadBatch = 16

// lookaheadMinLane is the working set, in nodes per engine, above which the
// engine hands out lookahead batches (see Engine.SetPreloader). An event
// reads about 256 bytes of per-node state spread over four lines (node row
// 64 B, state row 64 B, the application's row and the adjacency), plus the
// shard table entry; below 8192 nodes that is at most 2 MiB, the L2 of a
// current server core, so the loads would hit anyway and the batch would be
// pure overhead. It is the engine's node count, not a lane's population: a
// delivery lane holds the messages in flight, which says nothing about how
// many nodes' state they touch. It is a property of the run's input, not a
// setting.
const lookaheadMinLane = 8192

// lookaheadDue reports whether a pop that left a lane's ring at head with n
// entries completes a batch period (see LookaheadBatch) with the 2K entries
// a batch reads in the lane. It is the one due rule of both lane kinds.
func lookaheadDue(head, n int) bool {
	return head&(LookaheadBatch-1) == 0 && n >= 2*LookaheadBatch
}

// push appends an entry and reports whether the lane took it.
func (l *hookLane) push(t float64, seq uint64, to int32, word uint64) bool {
	mask := len(l.buf) - 1
	if l.sorted && l.n > 0 && t < l.buf[(l.head+l.n-1)&mask].time {
		return false
	}
	if l.n == len(l.buf) {
		l.grow()
		mask = len(l.buf) - 1
	}
	l.buf[(l.head+l.n)&mask] = hookEntry{time: t, seq: seq, word: word, to: to}
	l.n++
	return true
}

// grow doubles the ring (see growRing).
func (l *hookLane) grow() { l.buf, l.head = growRing(l.buf, l.head) }

// growRing returns a full ring of twice the length, at least 16, and its
// head: the entries are unwrapped so head lands at its old offset modulo
// LookaheadBatch (below K, so they still fit unwrapped), and the lookahead
// period runs on across the move.
func growRing[E any](buf []E, head int) ([]E, int) {
	grown := make([]E, max(16, 2*len(buf)))
	o := head % LookaheadBatch
	k := copy(grown[o:], buf[head:])
	copy(grown[o+k:], buf[:head])
	return grown, o
}

// front returns the lane's earliest entry, sorting the lane first if it has
// never been inspected. It must only be called when n > 0.
func (l *hookLane) front() *hookEntry {
	if !l.sorted {
		// Nothing has been popped yet, so the entries are buf[head:head+n]
		// without wrap-around.
		slices.SortFunc(l.buf[l.head:l.head+l.n], func(a, b hookEntry) int {
			if c := cmp.Compare(a.time, b.time); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		l.sorted = true
	}
	return &l.buf[l.head]
}

// pop removes and returns the front entry. The lane must be non-empty and
// sorted (front has been called).
func (l *hookLane) pop() hookEntry {
	h := l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return h
}

// Preloader loads the state that events acting on the given nodes will
// touch. A lane is a sorted FIFO, so the engine knows which of its events
// run next; it tells the Preloader installed with Engine.SetPreloader, so the
// state those events will touch loads while earlier events still run. The
// loads of one batch are independent, so their cache misses overlap instead
// of each event paying its own.
//
// Preload runs on the engine's goroutine, between popping an event and
// running it. It must only read — the batch is a hint, and the events it
// names run later, in order, exactly as they would without it — and only
// state that the engine's own events may touch (a shard's nodes, on a shard
// engine). The slice is engine-owned and only valid during the call. The
// return value is folded into an engine field, so the compiler cannot drop
// the loads as dead code; any value derived from the loaded words will do.
type Preloader interface {
	Preload(to []int32) uint64
}

// maxDeliveryLanes caps an engine's delivery lanes. A run's deliveries fall
// into a few fixed delays at most — one for the paper's network, two for
// zones, plus the shared key of absolute-time deposits — and every lane
// costs a compare on every event, so the cap is a constant, not a setting.
const maxDeliveryLanes = 4

// depositKey is the lane key of ScheduleDeliveryAt. Relative delays are
// clamped to ≥ 0, so no ScheduleDelivery key can collide with it.
const depositKey = -1.0

// deliveryEntry is one pending word-payload delivery held in a delivery
// lane: the (time, seq) key plus the Delivery fields other than Box.
// 40 bytes, against the queue's 24-byte key plus 64-byte event.
type deliveryEntry struct {
	time     float64
	seq      uint64
	word     uint64
	to, from int32
	kind     uint32
}

// deliveryLane is the FIFO ring of one (sink, key) pair's deliveries (see
// Engine.ScheduleDelivery). It only accepts an entry that is not earlier
// than its tail, so buf, read from head, is always sorted by (time, seq):
// seq grows with every scheduling call. Like a hook lane it is 64 bytes.
type deliveryLane struct {
	sink    DeliverySink
	key     float64
	buf     []deliveryEntry // ring; len(buf) is zero or a power of two
	head, n int
}

// push appends d at time t and reports whether the lane took it.
func (l *deliveryLane) push(t float64, seq uint64, d *Delivery) bool {
	mask := len(l.buf) - 1
	if l.n > 0 && t < l.buf[(l.head+l.n-1)&mask].time {
		return false
	}
	if l.n == len(l.buf) {
		l.buf, l.head = growRing(l.buf, l.head)
		mask = len(l.buf) - 1
	}
	l.buf[(l.head+l.n)&mask] = deliveryEntry{time: t, seq: seq, word: d.Word, to: d.To, from: d.From, kind: d.Kind}
	l.n++
	return true
}

// pop removes the front entry and returns it as a Delivery, with its time.
// The lane must be non-empty.
func (l *deliveryLane) pop() (float64, Delivery) {
	h := &l.buf[l.head]
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return h.time, Delivery{From: h.from, To: h.to, Kind: h.kind, Word: h.word}
}
