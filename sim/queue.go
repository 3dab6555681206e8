package sim

import (
	"fmt"
	"strings"
)

// queue is the priority-queue contract the engine schedules through: a
// min-queue over (time, seq) with strict total order (seq is unique), so any
// correct implementation pops events in exactly the same order and the
// simulation stays deterministic regardless of the queue chosen.
type queue interface {
	// Len returns the number of queued events.
	Len() int
	// Push inserts an event.
	Push(ev event)
	// peek returns the minimum event without removing or copying it; the
	// pointer is valid until the next Push or Pop. It must only be called
	// when Len() > 0.
	peek() *event
	// Pop removes and returns the minimum event. It must only be called when
	// Len() > 0.
	Pop() event
}

// QueueKind selects the event queue implementation backing an Engine. All
// kinds implement the same (time, seq) total order, so they are
// interchangeable without affecting results; they differ only in constant
// factors and allocation behaviour (see DESIGN.md).
type QueueKind int

const (
	// QueueSlab is the default: a 4-ary implicit heap of indices into a
	// reusable event slab. Events are never boxed into interfaces and popped
	// slots are recycled through a free list, so the steady-state hot path
	// (Schedule/Step) allocates nothing.
	QueueSlab QueueKind = iota
	// QueueCalendar is a calendar queue (Brown 1988) tuned for the
	// simulator's two dominant event classes — fixed-Δ periodic ticks and
	// fixed-transfer-delay deliveries — whose inter-event gaps are almost
	// constant, the regime where bucketed O(1) access beats a heap's
	// O(log n) sifts. Like the slab heap, its steady state allocates
	// nothing; see DESIGN.md for the bucket/overflow design.
	QueueCalendar
)

// String returns the queue kind name.
func (k QueueKind) String() string {
	switch k {
	case QueueSlab:
		return "slab"
	case QueueCalendar:
		return "calendar"
	default:
		return "queue(?)"
	}
}

// ParseQueueKind resolves a queue kind name as used by command-line flags
// (e.g. tokensim -queue=calendar). The empty string means the engine default
// (QueueSlab); note that the experiment layer's sim runtime overrides that
// default with the calendar queue.
func ParseQueueKind(name string) (QueueKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "slab":
		return QueueSlab, nil
	case "calendar":
		return QueueCalendar, nil
	default:
		return 0, fmt.Errorf("sim: unknown queue kind %q (want slab or calendar)", name)
	}
}

func newQueue(kind QueueKind) queue {
	switch kind {
	case QueueCalendar:
		return &calendarQueue{}
	default:
		return &slabQueue{}
	}
}

// slabQueue is a low-allocation event queue: the events live in a slab that
// is recycled through a free list, and the heap itself is a 4-ary implicit
// heap of int32 slab indices. Sift operations therefore move 4-byte indices
// rather than 24-byte event structs, and nothing escapes to the garbage
// collector on the Schedule/Step hot path once the slab has grown to the
// high-water mark of pending events.
type slabQueue struct {
	slab []event
	free []int32
	heap []int32
}

func (q *slabQueue) Len() int { return len(q.heap) }

func (q *slabQueue) less(a, b int32) bool {
	return q.slab[a].less(&q.slab[b])
}

func (q *slabQueue) Push(ev event) {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	q.slab[idx] = ev
	q.heap = append(q.heap, idx)
	q.siftUp(len(q.heap) - 1)
}

func (q *slabQueue) peek() *event { return &q.slab[q.heap[0]] }

func (q *slabQueue) Pop() event {
	idx := q.heap[0]
	ev := q.slab[idx]
	q.slab[idx] = event{} // release closure/sink/payload to the GC while the slot waits in the free list
	q.free = append(q.free, idx)
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return ev
}

func (q *slabQueue) siftUp(i int) {
	h := q.heap
	node := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(node, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = node
}

func (q *slabQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	node := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.less(h[c], h[best]) {
				best = c
			}
		}
		if !q.less(h[best], node) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = node
}
