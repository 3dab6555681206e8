package sim

import "slices"

// calendarQueue is a calendar queue (R. Brown, "Calendar Queues: A Fast
// O(1) Priority Queue Implementation for the Simulation Event Set Problem",
// CACM 1988) adapted to the simulator's strict (time, seq) total order.
//
// Events live in a recycled slab, exactly as in slabQueue, and the calendar
// structure only moves 4-byte slab indices — sorting, shifting and
// redistributing never copy event structs. Time is divided into "days" of a
// fixed width; day d holds the events whose time falls in
// [d·width, (d+1)·width). Days map onto a power-of-two ring of buckets
// (bucket = day mod #buckets), so one bucket interleaves events from days a
// whole "year" (#buckets days) apart. Each bucket is kept sorted by
// (time, seq) behind a consumed-prefix cursor; since every event of one day
// lands in the same bucket, the bucket head is the earliest event of the
// earliest day in that bucket, and the minimum of the whole queue is found
// by scanning at most one year of days forward from the day of the last
// popped event, falling back to a direct minimum over bucket heads when the
// year is empty (the "overflow" case: all pending events lie far in the
// future, e.g. after a quiet period). The located minimum is cached; a push
// keeps the cache unless the new event beats the cached minimum, and a pop
// keeps it while the next event in the bucket shares the popped event's
// day, so the scan position is only persisted when an event is actually
// popped — pushes below the cached minimum (which the engine produces after
// RunUntil parks virtual time at a horizon before the next event) can never
// be skipped.
//
// The structure is tuned for what still reaches it once the engine's lanes
// have taken every in-order event (ticks, fixed-delay deliveries, in-order
// deposits): closures, deliveries under continuous delay models, and the
// deposits a sharded barrier hands over out of order. Those arrive spread
// over a bounded horizon, so with width ≈ 3× the mean gap each bucket holds
// O(1) events and both Push and Pop touch a handful of slots, with no sift
// paths at all. Burst traffic (a reactive cascade delivering many messages
// at one instant) piles one day's bucket high; insertion stays O(1)
// amortized because same-time events carry increasing seq and append at the
// back, and the head cursor makes draining the burst O(1) per pop. The
// bucket count tracks the pending-event population's high-water mark: it
// doubles above 2×, and halves only once a full ring's worth of pops has
// found the population below 1/8 (never below calShrinkFloor). The width is
// re-estimated from the half of the queued events nearest the head at each
// resize. A population that swings widely every cycle — the out-of-order
// deposits a shard engine receives at each barrier and drains to zero
// before the next — therefore resizes O(log peak) times in all, not twice
// per cycle; a population that has really fallen still gets a smaller ring,
// so a pop never scans a year of mostly empty days for long. Slab slots and
// bucket arrays are recycled, so once the structure has grown to the
// high-water mark of pending events the steady state allocates nothing.
type calendarQueue struct {
	slab []event // event storage; indices below point into it
	free []int32 // recycled slab slots

	buckets  []calBucket
	mask     int64   // len(buckets)-1; len is a power of two
	width    float64 // day width
	invWidth float64 // 1/width: day mapping multiplies instead of dividing
	count    int
	cur      int64 // day of the last popped event: the minimum scan starts here
	cacheB   int   // bucket holding the minimum, when cacheOK
	cacheOK  bool
	scratch  []float64 // event times for width estimation, reused across resizes
	// lowPops counts the pops in a row that left the population below 1/8
	// of the ring; the ring halves when it reaches the ring size.
	lowPops int
}

// calBucket holds one bucket's pending events as slab indices: idx[head:]
// sorted ascending by (time, seq). The consumed prefix idx[:head] awaits the
// bucket's next reset, so popping the bucket minimum is O(1).
type calBucket struct {
	idx  []int32
	head int
}

const (
	minCalBuckets = 4
	// calShrinkFloor is the ring size below which the queue never shrinks:
	// below it a resize would save less than it costs in allocations.
	calShrinkFloor = 64
	// maxCalDay caps the day index so that extreme time/width ratios cannot
	// overflow the int64 conversion. Events past the cap share one far-future
	// day; they still live in a common bucket in sorted order, so the pop
	// order is unaffected.
	maxCalDay = int64(1) << 53
)

func (q *calendarQueue) Len() int { return q.count }

// day maps an event time to its day index under the current width.
func (q *calendarQueue) day(t float64) int64 {
	x := t * q.invWidth
	if x >= float64(maxCalDay) {
		return maxCalDay
	}
	return int64(x)
}

func (q *calendarQueue) Push(ev event) {
	if len(q.buckets) == 0 {
		q.buckets = make([]calBucket, minCalBuckets)
		q.mask = minCalBuckets - 1
		q.width, q.invWidth = 1, 1
	}
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slab))
		q.slab = append(q.slab, event{})
	}
	q.slab[idx] = ev
	d := q.day(ev.time)
	if q.count == 0 || d < q.cur {
		q.cur = d
	}
	q.insert(d, idx)
	q.count++
	if q.cacheOK {
		// The cached minimum survives the push unless the new event beats
		// it; this keeps pop-after-push (the dominant interleaving in a
		// self-scheduling simulation) from re-scanning the year.
		if m := &q.buckets[q.cacheB]; ev.less(&q.slab[m.idx[m.head]]) {
			q.cacheOK = false
		}
	}
	if q.count > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// insert places the slab index of an event into the bucket of day d, keeping
// the live region sorted. The backward scan makes the common cases — later
// events pushed later, and same-time bursts with increasing seq — an append.
func (q *calendarQueue) insert(d int64, idx int32) {
	ev := &q.slab[idx]
	b := &q.buckets[int(d&q.mask)]
	if b.head > 0 && len(b.idx) == cap(b.idx) {
		// Compact the consumed prefix away instead of growing the array.
		n := copy(b.idx, b.idx[b.head:])
		b.idx = b.idx[:n]
		b.head = 0
	}
	b.idx = append(b.idx, 0)
	i := len(b.idx) - 1
	for i > b.head && ev.less(&q.slab[b.idx[i-1]]) {
		b.idx[i] = b.idx[i-1]
		i--
	}
	b.idx[i] = idx
}

// locate returns the bucket holding the minimum event (its head) and caches
// the answer until it is invalidated. It must only be called when count > 0.
func (q *calendarQueue) locate() int {
	if q.cacheOK {
		return q.cacheB
	}
	// Scan one year of days forward from the last popped event's day. All
	// events of one day share a bucket, so a bucket head dated to the
	// scanned day is the earliest event overall.
	d := q.cur
	for i := 0; i < len(q.buckets); i++ {
		bi := int(d & q.mask)
		if b := &q.buckets[bi]; b.head < len(b.idx) && q.day(q.slab[b.idx[b.head]].time) == d {
			q.cacheB, q.cacheOK = bi, true
			return bi
		}
		d++
	}
	// Empty year: every pending event lies at least a year ahead. Fall back
	// to a direct minimum over the bucket heads (each head is its bucket's
	// minimum).
	best := -1
	for bi := range q.buckets {
		b := &q.buckets[bi]
		if b.head == len(b.idx) {
			continue
		}
		if best < 0 {
			best = bi
			continue
		}
		bb := &q.buckets[best]
		if q.slab[b.idx[b.head]].less(&q.slab[bb.idx[bb.head]]) {
			best = bi
		}
	}
	q.cacheB, q.cacheOK = best, true
	return best
}

func (q *calendarQueue) peek() *event {
	b := &q.buckets[q.locate()]
	return &q.slab[b.idx[b.head]]
}

func (q *calendarQueue) Pop() event {
	bi := q.locate()
	b := &q.buckets[bi]
	idx := b.idx[b.head]
	ev := q.slab[idx]
	q.slab[idx] = event{} // release closure/sink/payload to the GC
	q.free = append(q.free, idx)
	b.head++
	q.count--
	d := q.day(ev.time)
	q.cur = d
	switch {
	case b.head == len(b.idx):
		b.idx = b.idx[:0]
		b.head = 0
		q.cacheOK = false
	case q.day(q.slab[b.idx[b.head]].time) == d:
		// The bucket's next event shares the popped event's day, so it is
		// the new global minimum (all events of one day live in one bucket
		// and no earlier day can hold events): draining a same-instant
		// burst never re-scans.
		q.cacheB, q.cacheOK = bi, true
	default:
		q.cacheOK = false
	}
	if q.count >= len(q.buckets)/8 || len(q.buckets) <= calShrinkFloor {
		q.lowPops = 0
	} else if q.lowPops++; q.lowPops >= len(q.buckets) {
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

// resize rebuilds the ring with n buckets and a freshly estimated width,
// redistributing the queued slab indices (events themselves never move).
// Every bucket's index array is carved out of one shared backing slab,
// CSR-style, with per-bucket capacity at least the power of two covering its
// occupancy — no less headroom than growing each array by append would have
// left — so a resize costs O(1) allocations instead of one per bucket, and
// the post-resize tail of lazy one-bucket growths is no longer than under
// per-bucket allocation. A bucket that later outgrows its slice quietly
// appends into a private array. Resizing happens O(log n) times on the way
// to the high-water mark and then never again in steady state.
func (q *calendarQueue) resize(n int) {
	q.lowPops = 0
	old := q.buckets
	q.width = q.estimateWidth(old)
	q.invWidth = 1 / q.width
	q.buckets = make([]calBucket, n)
	q.mask = int64(n - 1)
	// First pass: count the occupancy of every new bucket under the new
	// width, then lay the buckets out back to back with pow2 headroom.
	occ := make([]int32, n)
	for oi := range old {
		b := &old[oi]
		for _, idx := range b.idx[b.head:] {
			occ[int(q.day(q.slab[idx].time)&q.mask)]++
		}
	}
	total := 0
	for _, c := range occ {
		total += calBucketCap(c)
	}
	backing := make([]int32, total)
	pos := 0
	for i := range q.buckets {
		c := calBucketCap(occ[i])
		q.buckets[i].idx = backing[pos : pos : pos+c]
		pos += c
	}
	q.count = 0
	for oi := range old {
		b := &old[oi]
		for _, idx := range b.idx[b.head:] {
			d := q.day(q.slab[idx].time)
			if q.count == 0 || d < q.cur {
				q.cur = d
			}
			q.insert(d, idx)
			q.count++
		}
	}
	q.cacheOK = false
}

// calBucketCap is the backing capacity a bucket with the given occupancy
// receives at a resize: the power of two covering it, floored at 4 so even
// buckets empty at resize time absorb a few pushes before going private.
func calBucketCap(occ int32) int {
	c := 4
	for c < int(occ) {
		c *= 2
	}
	return c
}

// estimateWidth derives the bucket width from the nearer half of the queued
// events: 3× the mean gap between successive event times from the earliest
// event to the median one (Brown's rule of about three events per day). The
// half nearest the head is what the next pops reach and the next pushes land
// among; bounding the sample by the median keeps a far-future tail
// (periodic closures, a static schedule) from stretching the width, and
// makes the estimate count every event of a burst delivered at one instant
// without letting one burst make up the whole sample. A nearer half that
// spans no time at all keeps the current width.
func (q *calendarQueue) estimateWidth(old []calBucket) float64 {
	s := q.scratch[:0]
	for oi := range old {
		b := &old[oi]
		for _, idx := range b.idx[b.head:] {
			s = append(s, q.slab[idx].time)
		}
	}
	q.scratch = s
	slices.Sort(s)
	m := len(s) / 2
	if m < 1 || s[m] == s[0] {
		return q.width
	}
	return 3 * (s[m] - s[0]) / float64(m)
}
