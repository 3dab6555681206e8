package sim

import (
	"cmp"
	"slices"
)

// hookEntry is one pending hook event held outside the queue: the
// (time, seq) key every event carries, plus the To/Word pair the hook's
// sink receives. 32 bytes, against the queue's 80-byte event.
type hookEntry struct {
	time float64
	seq  uint64
	word uint64
	to   int32
}

// hookLane is the FIFO ring of one hook sink's events (see
// Engine.ScheduleHookAt). Its invariant is that buf, read from head, is
// sorted by (time, seq) whenever the engine looks at it: entries pushed
// before the lane is first inspected are appended unordered and sorted once
// then (sorted flips), and afterwards the lane only accepts an entry that is
// not earlier than its tail — the caller routes any other through the queue.
// Because seq grows with every scheduling call, a tail-or-later time is
// enough to keep (time, seq) order.
type hookLane struct {
	sink   DeliverySink
	buf    []hookEntry // ring; len(buf) is zero or a power of two
	head   int
	n      int
	sorted bool
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

// grow doubles the ring, unwrapping it so head lands at 0.
func (l *hookLane) grow() {
	buf := make([]hookEntry, max(16, 2*len(l.buf)))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
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
