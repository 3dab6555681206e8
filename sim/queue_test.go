package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// allQueueKinds lists every queue implementation; tests iterate it so a new
// kind is automatically covered by the equivalence suite.
var allQueueKinds = []QueueKind{QueueSlab, QueueCalendar}

// heapQueue is the reference queue the equivalence tests hold every kind to:
// the stdlib container/heap, as plain as a (time, seq) min-queue gets.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) Len() int      { return q.h.Len() }
func (q *heapQueue) Push(ev event) { heap.Push(&q.h, ev) }
func (q *heapQueue) peek() *event  { return &q.h[0] }
func (q *heapQueue) Pop() event    { return heap.Pop(&q.h).(event) }

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool { return h[i].less(&h[j]) }

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}

// queueCase is one queue the engine-level tests run on: a QueueKind, or the
// heapQueue reference.
type queueCase struct {
	name string
	kind QueueKind
	ref  bool
}

// queueCases lists the heapQueue reference and every queue kind, so the hook
// lanes and the lookahead are held to the same contract over the reference
// as over the kinds it vouches for.
func queueCases() []queueCase {
	cases := []queueCase{{name: "container-heap", ref: true}}
	for _, kind := range allQueueKinds {
		cases = append(cases, queueCase{name: kind.String(), kind: kind})
	}
	return cases
}

func (c queueCase) queue() queue {
	if c.ref {
		return &heapQueue{}
	}
	return newQueue(c.kind)
}

// engine returns a fresh engine on the case's queue.
func (c queueCase) engine() *Engine {
	if c.ref {
		return &Engine{q: &heapQueue{}}
	}
	return NewEngineWithQueue(c.kind)
}

// shardedEngine is NewShardedEngine with the case's queue under the
// coordinator and every shard.
func (c queueCase) shardedEngine(cfg ShardedConfig) (*ShardedEngine, error) {
	cfg.Queue = c.kind
	se, err := NewShardedEngine(cfg)
	if err == nil && c.ref {
		se.coord.q = &heapQueue{}
		for _, e := range se.engines {
			e.q = &heapQueue{}
		}
	}
	return se, err
}

// TestQueueKindsAgree drives every queue implementation and the heapQueue
// reference with an identical randomized workload of interleaved pushes and
// pops — closure events and typed delivery events alike — and requires them
// to produce the exact same event order, which is what makes the queue choice
// invisible to simulation results. The workload mixes continuous and heavily
// duplicated times (seq tie-breaks), bursts, and long idle jumps (the
// calendar queue's overflow path).
func TestQueueKindsAgree(t *testing.T) {
	queues := make([]queue, len(allQueueKinds))
	for i, kind := range allQueueKinds {
		queues[i] = newQueue(kind)
	}
	ref := &heapQueue{}
	src := rng.New(42)
	var seq uint64
	base := 0.0
	for op := 0; op < 30000; op++ {
		for i, q := range queues {
			if q.Len() != ref.Len() {
				t.Fatalf("op %d: lengths diverged: %s %d, ref %d", op, allQueueKinds[i], q.Len(), ref.Len())
			}
		}
		if ref.Len() == 0 || src.Float64() < 0.55 {
			seq++
			ev := event{time: base + src.Float64()*100, seq: seq, fn: func() {}}
			switch {
			case src.Float64() < 0.2:
				// Duplicate times exercise the seq tie-break.
				ev.time = base + float64(src.Intn(10))
			case src.Float64() < 0.1:
				// Occasional far-future event: lands beyond the calendar's
				// current year and must surface in order regardless.
				ev.time = base + 1e4 + src.Float64()*1e4
			}
			if src.Float64() < 0.5 {
				// Typed delivery events share the ordering key with closures.
				ev.fn = nil
				ev.sink = discardSink{}
				ev.d = Delivery{From: int32(seq % 7), To: int32(seq % 11), Word: seq}
			}
			ref.Push(ev)
			for _, q := range queues {
				q.Push(ev)
			}
			continue
		}
		if src.Float64() < 0.05 {
			// Idle jump: advance the time base so new pushes leave the old
			// calendar year behind.
			base += 500
		}
		if src.Float64() < 0.3 {
			want := ref.peek()
			for i, q := range queues {
				if got := q.peek(); got.time != want.time || got.seq != want.seq {
					t.Fatalf("op %d: peek diverged: %s (%v, %d), ref (%v, %d)",
						op, allQueueKinds[i], got.time, got.seq, want.time, want.seq)
				}
			}
			continue
		}
		want := ref.Pop()
		for i, q := range queues {
			got := q.Pop()
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("op %d: Pop diverged: %s (%v, %d), ref (%v, %d)",
					op, allQueueKinds[i], got.time, got.seq, want.time, want.seq)
			}
		}
	}
	for ref.Len() > 0 {
		want := ref.Pop()
		for i, q := range queues {
			got := q.Pop()
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("drain: Pop diverged: %s (%v, %d), ref (%v, %d)",
					allQueueKinds[i], got.time, got.seq, want.time, want.seq)
			}
		}
	}
	for i, q := range queues {
		if q.Len() != 0 {
			t.Fatalf("%s queue still holds %d events", allQueueKinds[i], q.Len())
		}
	}
}

type discardSink struct{}

func (discardSink) Deliver(Delivery) {}

// TestQueuePopsSortedOrder checks the (time, seq) total order directly, on
// every kind and on the reference the other tests compare them to.
func TestQueuePopsSortedOrder(t *testing.T) {
	for _, c := range queueCases() {
		t.Run(c.name, func(t *testing.T) {
			q := c.queue()
			src := rng.New(7)
			for i := 0; i < 5000; i++ {
				q.Push(event{time: float64(src.Intn(50)), seq: uint64(i), fn: func() {}})
			}
			prev := event{time: -1}
			for q.Len() > 0 {
				ev := q.Pop()
				if ev.time < prev.time || (ev.time == prev.time && ev.seq < prev.seq) {
					t.Fatalf("event (%v, %d) popped after (%v, %d)", ev.time, ev.seq, prev.time, prev.seq)
				}
				prev = ev
			}
		})
	}
}

// TestEnginesAgreeAcrossQueues runs the same self-scheduling workload on
// engines with every queue kind and with the heapQueue reference, and
// compares the executed event traces. The
// workload interleaves closure events with typed deliveries so both event
// representations participate in the ordering.
func TestEnginesAgreeAcrossQueues(t *testing.T) {
	trace := func(e *Engine) []int {
		src := rng.New(3)
		var got []int
		id := 0
		sink := &traceSink{}
		var spawn func()
		spawn = func() {
			me := id
			id++
			got = append(got, me)
			if e.Processed() < 2000 {
				e.Schedule(src.Float64()*10, spawn)
				if src.Float64() < 0.4 {
					e.Schedule(src.Float64()*5, spawn)
				}
				if src.Float64() < 0.5 {
					e.ScheduleDelivery(src.Float64()*8, Delivery{Word: uint64(me)}, sink)
				}
			}
		}
		sink.got = &got
		for i := 0; i < 10; i++ {
			e.Schedule(src.Float64(), spawn)
		}
		e.RunUntil(1e6)
		return got
	}
	ref := trace(&Engine{q: &heapQueue{}})
	for _, kind := range allQueueKinds {
		t.Run(kind.String(), func(t *testing.T) {
			got := trace(NewEngineWithQueue(kind))
			if len(got) != len(ref) {
				t.Fatalf("trace lengths differ: %s %d, ref %d", kind, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("traces diverge at event %d: %s %d, ref %d", i, kind, got[i], ref[i])
				}
			}
		})
	}
}

// traceSink records delivered words as negative entries in the shared trace,
// distinguishing deliveries from closure executions.
type traceSink struct {
	got *[]int
}

func (s *traceSink) Deliver(d Delivery) { *s.got = append(*s.got, -1-int(d.Word)) }

// TestSlabQueueRecyclesSlots checks that the slab's high-water mark tracks
// pending events rather than total throughput: pushing and popping many more
// events than are ever simultaneously pending must not grow the slab.
func TestSlabQueueRecyclesSlots(t *testing.T) {
	q := &slabQueue{}
	for i := 0; i < 100; i++ {
		q.Push(event{time: float64(i), seq: uint64(i), fn: func() {}})
	}
	for round := 0; round < 1000; round++ {
		ev := q.Pop()
		ev.time += 100
		ev.seq += 100
		q.Push(ev)
	}
	if len(q.slab) != 100 {
		t.Fatalf("slab grew to %d slots for 100 pending events", len(q.slab))
	}
}

// TestCalendarQueueSteadyStateAllocs checks the calendar queue's hot path:
// once the structure has grown to the workload's high-water mark, a
// push/pop cycle allocates nothing.
func TestCalendarQueueSteadyStateAllocs(t *testing.T) {
	q := &calendarQueue{}
	src := rng.New(11)
	seq := uint64(0)
	for i := 0; i < 4096; i++ {
		seq++
		q.Push(event{time: src.Float64() * 100, seq: seq, fn: nil, sink: discardSink{}})
	}
	// Warm up: cycle enough events for resizes and bucket growth to settle.
	for i := 0; i < 20000; i++ {
		ev := q.Pop()
		seq++
		ev.seq = seq
		ev.time += src.Float64() * 100
		q.Push(ev)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ev := q.Pop()
		seq++
		ev.seq = seq
		ev.time += src.Float64() * 100
		q.Push(ev)
	})
	if allocs != 0 {
		t.Errorf("calendar queue steady state allocates %.1f per push/pop cycle, want 0", allocs)
	}
}

// TestHoldModelSteadyStateAllocs is the engine-level hold model on every
// queue kind: each executed closure event schedules itself again at a random
// offset, over 4096 pending events. After a full turnover of the population
// (slab and calendar at their high-water marks) a Step — pop, run the
// closure, push its successor — allocates nothing.
func TestHoldModelSteadyStateAllocs(t *testing.T) {
	const pending = 4096
	for _, kind := range allQueueKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := NewEngineWithQueue(kind)
			src := rng.New(1)
			var hold func()
			hold = func() { e.Schedule(src.Float64()*100, hold) }
			for i := 0; i < pending; i++ {
				e.Schedule(src.Float64()*100, hold)
			}
			for i := 0; i < 4*pending; i++ {
				e.Step()
			}
			if allocs := testing.AllocsPerRun(10*pending, func() { e.Step() }); allocs != 0 {
				t.Errorf("hold model on the %s queue allocates %.1f per Step, want 0", kind, allocs)
			}
			if e.Pending() != pending {
				t.Errorf("hold model holds %d pending events, want %d", e.Pending(), pending)
			}
		})
	}
}

// TestCalendarQueueShrinkMatchesSlab exercises the calendar queue's shrink
// path, which the self-scheduling simulation workloads never reach (their
// pending population only grows to a high-water mark): repeated cycles grow
// the population, drain it, and then hold it small for long enough that the
// bucket ring halves down to the floor — with pushes interleaved, so
// redistribution happens on a live mix of old and new days — while every Pop
// and interleaved peek is cross-checked against the slab queue. The cycle
// count and phase lengths are chosen so the ring demonstrably both grows
// well past the minimum and halves back down multiple times.
func TestCalendarQueueShrinkMatchesSlab(t *testing.T) {
	cal := &calendarQueue{}
	ref := newQueue(QueueSlab)
	src := rng.New(23)
	var seq uint64
	base := 0.0
	maxBuckets, shrinks, prevBuckets := 0, 0, 0

	observe := func() {
		if n := len(cal.buckets); n > 0 {
			if n > maxBuckets {
				maxBuckets = n
			}
			if prevBuckets > 0 && n < prevBuckets {
				shrinks++
			}
			prevBuckets = n
		}
	}
	push := func() {
		seq++
		ev := event{time: base + src.Float64()*300, seq: seq, fn: func() {}}
		if src.Float64() < 0.15 {
			// Duplicate-time bursts keep the seq tie-break involved in the
			// redistribution ordering.
			ev.time = base + float64(src.Intn(20))
		}
		cal.Push(ev)
		ref.Push(ev)
		observe()
	}
	popCompare := func(op string) {
		want := ref.Pop()
		got := cal.Pop()
		observe()
		if got.time != want.time || got.seq != want.seq {
			t.Fatalf("%s: Pop diverged: calendar (%v, %d), slab (%v, %d)",
				op, got.time, got.seq, want.time, want.seq)
		}
	}

	for cycle := 0; cycle < 5; cycle++ {
		// Grow the pending population so the ring doubles repeatedly.
		for ref.Len() < 3000 {
			push()
		}
		// Drain-heavy phase: mostly pops with pushes sprinkled in, walking
		// the population down through every halving threshold.
		for ref.Len() > 8 {
			if src.Float64() < 0.1 {
				push()
				continue
			}
			if src.Float64() < 0.1 {
				if w, g := ref.peek().time, cal.peek().time; g != w {
					t.Fatalf("cycle %d: peek diverged: calendar %v, slab %v", cycle, g, w)
				}
			}
			popCompare("drain")
		}
		// Hold the population small: a ring's worth of pops below 1/8
		// occupancy halves the ring, so the ring walks down to the floor.
		for i := 0; i < 8000; i++ {
			push()
			popCompare("hold")
		}
		if len(cal.buckets) != calShrinkFloor {
			t.Fatalf("cycle %d: a held small population left %d buckets, want the shrink floor %d",
				cycle, len(cal.buckets), calShrinkFloor)
		}
		// Advance the time base between cycles so regrowth lands in fresh
		// calendar days and the width re-estimation sees new gaps.
		base += 1000
	}
	for ref.Len() > 0 {
		popCompare("final drain")
	}
	if cal.Len() != 0 {
		t.Fatalf("calendar queue still holds %d events", cal.Len())
	}
	if maxBuckets < 8*calShrinkFloor {
		t.Errorf("bucket ring only grew to %d buckets; the workload should force repeated doublings", maxBuckets)
	}
	if shrinks < 5 {
		t.Errorf("only %d halving resizes observed; the drain phases should force repeated shrinks", shrinks)
	}
	if len(cal.buckets) != calShrinkFloor {
		t.Errorf("drained ring holds %d buckets, want the shrink floor %d", len(cal.buckets), calShrinkFloor)
	}
}

// TestCalendarQueueSwingDoesNotResize is the guard against resize thrash: a
// population that swings by far more than the grow/shrink ratio every cycle
// — the out-of-order deposits of a shard engine, which arrive at a barrier
// and drain before the next, down to zero or to an eighth — may resize the
// ring only on its way to the peak, O(log peak) times over 1 000 cycles, and
// after warm-up a whole cycle allocates nothing.
func TestCalendarQueueSwingDoesNotResize(t *testing.T) {
	const peak, cycles = 4096, 1000
	for _, trough := range []int{0, peak / 8} {
		t.Run(fmt.Sprintf("trough=%d", trough), func(t *testing.T) {
			q := &calendarQueue{}
			var seq uint64
			next := 0.0
			resizes, buckets := 0, 0
			cycle := func() {
				for q.Len() < peak {
					seq++
					next += 0.01
					q.Push(event{time: next, seq: seq, sink: discardSink{}})
					if len(q.buckets) != buckets {
						resizes, buckets = resizes+1, len(q.buckets)
					}
				}
				for q.Len() > trough {
					q.Pop()
					if len(q.buckets) != buckets {
						resizes, buckets = resizes+1, len(q.buckets)
					}
				}
			}
			for i := 0; i < 20; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
				t.Errorf("a swing cycle allocates %.1f after warm-up, want 0", allocs)
			}
			for i := 41; i < cycles; i++ {
				cycle()
			}
			if max := bits.Len(peak); resizes > max {
				t.Errorf("%d cycles swinging %d → %d resized the ring %d times, want at most %d (log₂ peak)",
					cycles, peak, trough, resizes, max)
			}
		})
	}
}

// TestCalendarWidthKeepsOperationsConstant is the calendar queue's structural
// guard, a seeded hold model shaped like push gossip on the zones network:
// every popped delivery fans out into a burst of deliveries at one instant,
// 0.5 s (intra-zone, 1 in 8) or 3 s (inter-zone) ahead, so equal times pile
// up on a lattice as the cascades compound; two periodic closures (injection
// and sampling) sit far ahead; and the population swings between 3000 and
// 12000 so the ring keeps doubling and halving. Whatever width each resize
// picks, the mean insert walk (events a push shifts past in its bucket) and
// the mean number of days a pop scans must stay O(1). A width estimated from
// the first buckets' events rather than the head's can rest on one burst plus
// a far closure: it comes out seconds wide, every pending event lands in a
// few buckets, and the walk stays linear until the next resize.
func TestCalendarWidthKeepsOperationsConstant(t *testing.T) {
	const (
		lo, hi   = 3000, 12000 // the pending population swings between these
		swing    = 50.0        // seconds per swing
		warmup   = 50_000
		measured = 150_000
		maxWalk  = 1.0 // mean events shifted past per push
		maxScan  = 1.0 // mean days scanned per pop
	)
	periods := []float64{17.28, 172.8}
	for seed := uint64(1); seed <= 3; seed++ {
		q := &calendarQueue{}
		src := rng.New(seed)
		var seq uint64
		walks, pushes, scans, pops := 0, 0, 0, 0
		push := func(ev event, measure bool) {
			seq++
			ev.seq = seq
			if measure {
				b := &q.buckets[int(q.day(ev.time)&q.mask)]
				for _, idx := range b.idx[b.head:] {
					if ev.less(&q.slab[idx]) {
						walks++
					}
				}
				pushes++
			}
			q.Push(ev)
		}
		for k, p := range periods {
			push(event{time: p, fn: func() {}, d: Delivery{Kind: uint32(k)}}, false)
		}
		for i := 0; i < 8; i++ {
			push(event{time: src.Float64() * 3, sink: discardSink{}}, false)
		}
		for step := 0; step < warmup+measured; step++ {
			measure := step >= warmup
			if measure {
				pops++
				if !q.cacheOK {
					// peek runs the scan Pop would run; Pop then reuses its answer.
					cur := q.cur
					days := int(q.day(q.peek().time) - cur + 1)
					if days > len(q.buckets) {
						days = 2 * len(q.buckets) // a year of empty days, then the overflow sweep
					}
					scans += days
				}
			}
			ev := q.Pop()
			if ev.fn != nil {
				ev.time += periods[ev.d.Kind]
				push(ev, measure)
				continue
			}
			target := lo + int(float64(hi-lo)*(0.5+0.5*math.Sin(2*math.Pi*ev.time/swing)))
			fan := src.Intn(4) // mean 1.5: the population grows ...
			if q.Len() > target {
				fan = src.Intn(2) // ... or shrinks (mean 0.5) towards the target
			}
			delay := 3.0
			if src.Intn(8) == 0 {
				delay = 0.5
			}
			for j := 0; j < fan; j++ {
				push(event{time: ev.time + delay, sink: discardSink{}}, measure)
			}
		}
		walk, scan := float64(walks)/float64(pushes), float64(scans)/float64(pops)
		if walk > maxWalk || scan > maxScan {
			t.Errorf("seed %d: mean insert walk %.2f, mean pop scan %.2f days (width %.3g s, %d buckets), want ≤ %g and ≤ %g",
				seed, walk, scan, q.width, len(q.buckets), maxWalk, maxScan)
		}
	}
}

// TestParseQueueKind checks the flag-facing name resolution, one subtest per
// name.
func TestParseQueueKind(t *testing.T) {
	for _, c := range []struct {
		name string
		want QueueKind
	}{
		{"", QueueSlab},
		{"slab", QueueSlab},
		{"calendar", QueueCalendar},
		{" Calendar ", QueueCalendar},
	} {
		t.Run(fmt.Sprintf("%q", c.name), func(t *testing.T) {
			got, err := ParseQueueKind(c.name)
			if err != nil || got != c.want {
				t.Errorf("ParseQueueKind(%q) = %v, %v; want %v", c.name, got, err, c.want)
			}
		})
	}
	// The container/heap queue is a test reference, not a kind.
	for _, name := range []string{"bogus", "heap", "container-heap"} {
		t.Run(fmt.Sprintf("%q", name), func(t *testing.T) {
			_, err := ParseQueueKind(name)
			if err == nil || !strings.Contains(err.Error(), "want slab or calendar") {
				t.Errorf("ParseQueueKind(%q) error = %v, want one naming slab and calendar", name, err)
			}
		})
	}
}
