package sim

// queue is the engine's event queue: a min-queue over (time, seq), a strict
// total order because seq is unique. It is a 4-ary implicit heap of keys that
// carry the ordering fields inline, so a sift compares contiguous 24-byte keys
// and never dereferences an event; the events wait in a slab whose slots are
// recycled through a free list. Once the slab has grown to the high-water mark
// of pending events, push and pop allocate nothing. The zero value is an empty
// queue.
type queue struct {
	keys []key
	slab []event
	free []int32
}

// key is one heap entry: an event's (time, seq) ordering key and the slab
// slot that holds the event.
type key struct {
	time float64
	seq  uint64
	slot int32
}

func (k *key) less(o *key) bool {
	if k.time != o.time {
		return k.time < o.time
	}
	return k.seq < o.seq
}

// Len returns the number of queued events.
func (q *queue) Len() int { return len(q.keys) }

// push inserts ev with the key (t, seq).
func (q *queue) push(t float64, seq uint64, ev event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = ev
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, ev)
	}
	q.keys = append(q.keys, key{time: t, seq: seq, slot: slot})
	h := q.keys
	i := len(h) - 1
	k := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// pop removes the least event and returns it with its time. It must only be
// called when Len() > 0.
func (q *queue) pop() (float64, event) {
	top := q.keys[0]
	ev := q.slab[top.slot]
	q.slab[top.slot] = event{} // release closure/sink/payload to the GC while the slot waits in the free list
	q.free = append(q.free, top.slot)
	n := len(q.keys) - 1
	k := q.keys[n]
	h := q.keys[:n]
	q.keys = h
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, n); c++ {
			if h[c].less(&h[best]) {
				best = c
			}
		}
		if !h[best].less(&k) {
			break
		}
		h[i] = h[best]
		i = best
	}
	if n > 0 {
		h[i] = k
	}
	return top.time, ev
}
