package sim

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// refEvent is one entry of the reference queue: an event with its
// (time, seq) key beside it.
type refEvent struct {
	time float64
	seq  uint64
	ev   event
}

// refHeap is the reference the differential tests hold the engine's heap to:
// the stdlib container/heap, as plain as a (time, seq) min-queue gets.
type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(refEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = refEvent{}
	*h = old[:n-1]
	return e
}

type discardSink struct{}

func (discardSink) Deliver(Delivery) {}

// heapWorkload is one shape of TestHeapMatchesContainerHeap's operation
// stream: push is the probability that operation op pushes (otherwise it
// peeks or pops), and at draws a pushed event's time from the current time
// base and its seq.
type heapWorkload struct {
	name string
	push func(op int) float64
	at   func(src *rng.Source, base float64, seq uint64) float64
}

var heapWorkloads = []heapWorkload{
	// Continuous and heavily duplicated times (seq tie-breaks) and
	// far-future events.
	{"mixed", func(int) float64 { return 0.55 }, func(src *rng.Source, base float64, _ uint64) float64 {
		at := base + src.Float64()*100
		switch {
		case src.Float64() < 0.2:
			at = base + float64(src.Intn(10)) // duplicate times exercise the seq tie-break
		case src.Float64() < 0.1:
			at = base + 1e4 + src.Float64()*1e4
		}
		return at
	}},
	// Three distinct times: nearly every compare is decided by seq.
	{"ties", func(int) float64 { return 0.55 }, func(src *rng.Source, base float64, _ uint64) float64 {
		return base + float64(src.Intn(3))
	}},
	// Times rising with seq, the fixed-delay pattern: every push stays a leaf.
	{"ascending", func(int) float64 { return 0.55 }, func(_ *rng.Source, base float64, seq uint64) float64 {
		return base + float64(seq)/4
	}},
	// Times falling with seq: every push sifts up to the root.
	{"descending", func(int) float64 { return 0.55 }, func(_ *rng.Source, base float64, seq uint64) float64 {
		return base + 1e6 - float64(seq)/4
	}},
	// Alternating phases that grow the heap to thousands of keys and drain
	// it to empty, so sift-downs run over every depth and slots recycle.
	{"grow-drain", func(op int) float64 {
		if op/3000%2 == 0 {
			return 0.9
		}
		return 0.1
	}, func(src *rng.Source, base float64, _ uint64) float64 {
		return base + src.Float64()*100
	}},
	// Two clusters far apart, the shape of ticks beside a churn schedule.
	{"bimodal", func(int) float64 { return 0.55 }, func(src *rng.Source, base float64, _ uint64) float64 {
		if src.Float64() < 0.5 {
			return base + src.Float64()
		}
		return base + 86400*(1+src.Float64())
	}},
}

// TestHeapMatchesContainerHeap drives the heap and the container/heap
// reference with randomized workloads of interleaved pushes, peeks and pops,
// one subtest per heapWorkload shape, and requires the same event at every
// step: same key, same payload. Every shape has idle jumps of the time base
// and all three event forms: closures, word deliveries and boxed deliveries.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for _, w := range heapWorkloads {
		t.Run(w.name, func(t *testing.T) {
			var q queue
			ref := &refHeap{}
			src := rng.New(42)
			var seq uint64
			base := 0.0
			check := func(op int, gotT float64, got event, want refEvent) {
				t.Helper()
				if gotT != want.time || got.d != want.ev.d || (got.fn == nil) != (want.ev.fn == nil) || got.sink != want.ev.sink {
					t.Fatalf("op %d: pop diverged: heap (%v, %+v), ref (%v, %+v)", op, gotT, got.d, want.time, want.ev.d)
				}
			}
			maxLen := 0
			for op := 0; op < 30000; op++ {
				if q.Len() != ref.Len() {
					t.Fatalf("op %d: lengths diverged: heap %d, ref %d", op, q.Len(), ref.Len())
				}
				maxLen = max(maxLen, q.Len())
				if ref.Len() == 0 || src.Float64() < w.push(op) {
					seq++
					at := w.at(src, base, seq)
					// Every form carries its seq in d.Word, so a pop identifies it.
					ev := event{d: Delivery{From: int32(seq % 7), To: int32(seq % 11), Word: seq}}
					switch x := src.Float64(); {
					case x < 0.4:
						ev.fn = func() {}
					case x < 0.7:
						ev.sink = discardSink{}
					default:
						ev.sink, ev.d.Box = discardSink{}, seq
					}
					heap.Push(ref, refEvent{time: at, seq: seq, ev: ev})
					q.push(at, seq, ev)
					continue
				}
				if src.Float64() < 0.05 {
					base += 500
				}
				if src.Float64() < 0.3 {
					if got, want := q.keys[0], (*ref)[0]; got.time != want.time || got.seq != want.seq {
						t.Fatalf("op %d: head diverged: heap (%v, %d), ref (%v, %d)", op, got.time, got.seq, want.time, want.seq)
					}
					continue
				}
				gotT, got := q.pop()
				check(op, gotT, got, heap.Pop(ref).(refEvent))
			}
			for op := 0; ref.Len() > 0; op++ {
				gotT, got := q.pop()
				check(op, gotT, got, heap.Pop(ref).(refEvent))
			}
			if q.Len() != 0 {
				t.Fatalf("heap still holds %d events", q.Len())
			}
			if maxLen < 64 {
				t.Fatalf("the heap never held more than %d keys; the workload should build a deep heap", maxLen)
			}
		})
	}
}

// TestQueuePopsSortedOrder checks the (time, seq) total order directly, for
// push orders whose times are duplicated, continuous, falling and all equal.
func TestQueuePopsSortedOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		at   func(src *rng.Source, i int) float64
	}{
		{"ties", func(src *rng.Source, _ int) float64 { return float64(src.Intn(50)) }},
		{"continuous", func(src *rng.Source, _ int) float64 { return src.Float64() * 1e3 }},
		{"descending", func(_ *rng.Source, i int) float64 { return float64(5000 - i) }},
		{"equal", func(*rng.Source, int) float64 { return 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var q queue
			src := rng.New(7)
			for i := 0; i < 5000; i++ {
				q.push(c.at(src, i), uint64(i), event{d: Delivery{Word: uint64(i)}})
			}
			prevT, prevSeq, popped := -1.0, uint64(0), 0
			for q.Len() > 0 {
				at, ev := q.pop()
				if at < prevT || (at == prevT && ev.d.Word < prevSeq) {
					t.Fatalf("event (%v, %d) popped after (%v, %d)", at, ev.d.Word, prevT, prevSeq)
				}
				prevT, prevSeq = at, ev.d.Word
				popped++
			}
			if popped != 5000 {
				t.Fatalf("popped %d of 5000 events", popped)
			}
		})
	}
}

// scheduler is the part of Engine's surface the differential tests drive,
// so one workload runs on Engine and on refEngine alike. lastSeq is the
// sequence number the latest scheduled event got.
type scheduler interface {
	Now() float64
	Processed() uint64
	Pending() int
	NextTime() (float64, bool)
	Schedule(delay float64, fn func())
	At(t float64, fn func())
	ScheduleDelivery(delay float64, d Delivery, sink DeliverySink)
	ScheduleDeliveryAt(t float64, d Delivery, sink DeliverySink)
	ScheduleHookAt(t float64, to int32, word uint64, hook Hook)
	Step() bool
	RunUntil(horizon float64)
	RunBefore(limit float64)
	run()
	lastSeq() uint64
}

func (e *Engine) lastSeq() uint64 { return e.seq }

// testSink is a test target that is scheduled both as a hook and as a
// delivery sink, so a lane schedule and its queue-only reference share it.
type testSink interface {
	Hook
	DeliverySink
}

// refEngine is the scheduler Engine is held to: every event — closure,
// delivery or hook — waits in one container/heap over (time, seq), numbered
// and clamped as Engine does, with no lanes.
type refEngine struct {
	h         refHeap
	now       float64
	seq       uint64
	processed uint64
}

func (r *refEngine) at(t float64, ev event) {
	if t < r.now || math.IsNaN(t) {
		t = r.now
	}
	r.seq++
	heap.Push(&r.h, refEvent{time: t, seq: r.seq, ev: ev})
}

func (r *refEngine) Now() float64      { return r.now }
func (r *refEngine) Processed() uint64 { return r.processed }
func (r *refEngine) Pending() int      { return r.h.Len() }
func (r *refEngine) lastSeq() uint64   { return r.seq }

func (r *refEngine) NextTime() (float64, bool) {
	if r.h.Len() == 0 {
		return 0, false
	}
	return r.h[0].time, true
}

func (r *refEngine) Schedule(delay float64, fn func()) {
	r.at(r.now+max(delay, 0), event{fn: fn})
}

func (r *refEngine) At(t float64, fn func()) { r.at(t, event{fn: fn}) }

func (r *refEngine) ScheduleDelivery(delay float64, d Delivery, sink DeliverySink) {
	r.at(r.now+max(delay, 0), event{sink: sink, d: d})
}

func (r *refEngine) ScheduleDeliveryAt(t float64, d Delivery, sink DeliverySink) {
	r.at(t, event{sink: sink, d: d})
}

func (r *refEngine) ScheduleHookAt(t float64, to int32, word uint64, hook Hook) {
	r.at(t, event{sink: hookThunk{}, d: Delivery{To: to, Word: word, Box: hook}})
}

// pop runs the earliest event.
func (r *refEngine) pop() {
	e := heap.Pop(&r.h).(refEvent)
	r.now = e.time
	r.processed++
	if e.ev.fn != nil {
		e.ev.fn()
	} else {
		e.ev.sink.Deliver(e.ev.d)
	}
}

func (r *refEngine) Step() bool {
	if r.h.Len() == 0 {
		return false
	}
	r.pop()
	return true
}

func (r *refEngine) RunUntil(horizon float64) {
	for r.h.Len() > 0 && r.h[0].time <= horizon {
		r.pop()
	}
	if horizon > r.now {
		r.now = horizon
	}
}

func (r *refEngine) RunBefore(limit float64) {
	for r.h.Len() > 0 && r.h[0].time < limit {
		r.pop()
	}
	if limit > r.now {
		r.now = limit
	}
}

func (r *refEngine) run() {
	for r.h.Len() > 0 {
		r.pop()
	}
}

// diffWorld is the workload of TestEngineMatchesContainerHeap. Every executed
// event logs its time and id and, while the budget lasts, schedules one more
// event on average, of a random class: a closure, a word delivery at one of
// two fixed delays (delivery lanes) or at a varying delay (mostly the heap),
// a boxed delivery (the heap), or a one-shot hook at most half a period
// ahead, usually behind its lane's tail (the heap). Periodic hooks re-arm one
// period after each run (a hook lane). Every time lies on a lattice of
// quarter seconds, so events of every class and place tie.
type diffWorld struct {
	s      scheduler
	r      *rng.Source
	log    []diffRecord
	id     uint64
	sink   *diffSink
	hooks  *diffSink
	probes []string
}

// diffRecord is one executed event: its time, id and form.
type diffRecord struct {
	time float64
	id   uint64
	form int32 // 0 closure, 1 delivery, 2 boxed delivery, 3 periodic hook, 4 one-shot hook
}

const (
	diffBudget = 20_000
	diffPeriod = 10.0
)

type diffSink struct{ w *diffWorld }

func (s *diffSink) Deliver(d Delivery) {
	w := s.w
	form := d.To
	if d.Box != nil {
		if d.Box != d.Word {
			panic(fmt.Sprintf("corrupted boxed delivery %+v", d))
		}
		form = 2
	}
	w.log = append(w.log, diffRecord{time: w.s.Now(), id: d.Word, form: form})
	if d.To == 3 && w.s.Processed() < diffBudget {
		w.s.ScheduleHookAt(w.s.Now()+diffPeriod, 3, d.Word, s)
	}
	w.spawn()
}

func (s *diffSink) RunHook(to int32, word uint64) { s.Deliver(Delivery{To: to, Word: word}) }

func (w *diffWorld) spawn() {
	if w.s.Processed() >= diffBudget {
		return
	}
	for k := w.r.Intn(3); k > 0; k-- {
		w.id++
		id := w.id
		switch x := w.r.Float64(); {
		case x < 0.3:
			w.s.Schedule(w.tick(20), func() { w.closure(id) })
		case x < 0.55:
			w.s.ScheduleDelivery(1.75, Delivery{To: 1, Word: id}, w.sink)
		case x < 0.65:
			w.s.ScheduleDelivery(0.5, Delivery{To: 1, Word: id}, w.sink)
		case x < 0.8:
			w.s.ScheduleDelivery(0.25+w.tick(12), Delivery{To: 1, Word: id}, w.sink)
		case x < 0.9:
			w.s.ScheduleDelivery(1.75, Delivery{To: 1, Word: id, Box: id}, w.sink)
		default:
			w.s.ScheduleHookAt(w.s.Now()+w.tick(20), 4, id, w.hooks)
		}
	}
}

// tick draws a lattice offset in [0, n/4).
func (w *diffWorld) tick(n int) float64 { return float64(w.r.Intn(n)) / 4 }

func (w *diffWorld) closure(id uint64) {
	w.log = append(w.log, diffRecord{time: w.s.Now(), id: id})
	w.spawn()
}

func runDiffWorld(s scheduler, seed uint64) *diffWorld {
	w := &diffWorld{s: s, r: rng.New(seed)}
	w.sink, w.hooks = &diffSink{w: w}, &diffSink{w: w}
	for i := 0; i < 100; i++ {
		w.id++
		s.ScheduleHookAt(w.tick(40), 3, w.id, w.hooks)
		w.id++
		id := w.id
		s.Schedule(w.tick(40), func() { w.closure(id) })
	}
	for _, h := range []float64{5.5, 20, 20, 47.25, 200, math.Inf(1)} {
		s.RunUntil(h)
		next, ok := s.NextTime()
		w.probes = append(w.probes, fmt.Sprintf("now %v next %v %v processed %d pending %d", s.Now(), next, ok, s.Processed(), s.Pending()))
	}
	return w
}

// TestEngineMatchesContainerHeap is the end-to-end differential test of the
// engine: the heap and the lanes together must run diffWorld's mix of
// closures, word and boxed deliveries and periodic and out-of-order hooks in
// the order of refEngine, one container/heap holding every event, and report
// the same Now/NextTime/Processed/Pending at every probe.
func TestEngineMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		e := NewEngine()
		got := runDiffWorld(e, seed)
		want := runDiffWorld(&refEngine{}, seed)
		if len(want.log) < diffBudget {
			t.Fatalf("seed %d: only %d events executed, want at least %d", seed, len(want.log), diffBudget)
		}
		for i := range want.log {
			if i >= len(got.log) || got.log[i] != want.log[i] {
				t.Fatalf("seed %d: event %d differs: engine %+v, reference %+v", seed, i, at(got.log, i), want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: engine executed %d events, reference %d", seed, len(got.log), len(want.log))
		}
		if !reflect.DeepEqual(got.probes, want.probes) {
			t.Fatalf("seed %d: probes differ:\nengine    %q\nreference %q", seed, got.probes, want.probes)
		}
		if e.ndl < 2 || len(e.lanes) != 1 || len(e.q.slab) == 0 {
			t.Fatalf("seed %d: %d delivery lanes, %d hook lanes, %d heap slots; want ≥ 2, 1 and a used heap", seed, e.ndl, len(e.lanes), len(e.q.slab))
		}
	}
}

// TestQueueRecyclesSlots checks that the slab's high-water mark tracks
// pending events rather than total throughput: pushing and popping many more
// events than are ever simultaneously pending must not grow the slab, and a
// popped slot no longer holds its closure, sink or boxed payload.
func TestQueueRecyclesSlots(t *testing.T) {
	var q queue
	for i := 0; i < 100; i++ {
		q.push(float64(i), uint64(i), event{fn: func() {}})
	}
	for round := 0; round < 1000; round++ {
		at, ev := q.pop()
		if round%2 == 0 {
			ev = event{sink: discardSink{}, d: Delivery{Box: round}}
		}
		q.push(at+100, uint64(100+round), ev)
	}
	if len(q.slab) != 100 {
		t.Fatalf("slab grew to %d slots for 100 pending events", len(q.slab))
	}
	for q.Len() > 0 {
		q.pop()
	}
	for i, ev := range q.slab {
		if ev.fn != nil || ev.sink != nil || ev.d.Box != nil {
			t.Fatalf("freed slot %d still references %+v", i, ev)
		}
	}
}

// TestHoldModelSteadyStateAllocs is the engine-level hold model: each
// executed closure event schedules itself again at a random offset, over a
// population of pending events, one subtest per population size, from a
// heap of a few levels to one of tens of thousands of keys. After a full turnover of the population
// (slab at its high-water mark) a Step — pop, run the closure, push its
// successor — allocates nothing.
func TestHoldModelSteadyStateAllocs(t *testing.T) {
	for _, pending := range []int{16, 4096, 32768} {
		t.Run(fmt.Sprintf("pending=%d", pending), func(t *testing.T) {
			e := NewEngine()
			src := rng.New(1)
			var hold func()
			hold = func() { e.Schedule(src.Float64()*100, hold) }
			for i := 0; i < pending; i++ {
				e.Schedule(src.Float64()*100, hold)
			}
			for i := 0; i < 4*pending; i++ {
				e.Step()
			}
			if allocs := testing.AllocsPerRun(max(10*pending, 10000), func() { e.Step() }); allocs != 0 {
				t.Errorf("hold model allocates %.1f per Step, want 0", allocs)
			}
			if e.Pending() != pending {
				t.Errorf("hold model holds %d pending events, want %d", e.Pending(), pending)
			}
		})
	}
}
