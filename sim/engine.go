// Package sim provides a deterministic discrete-event simulation engine with
// virtual time. It plays the role of the PeerSim simulator used in the
// paper's evaluation: events (protocol rounds, message deliveries, churn
// transitions, metric probes) are executed in non-decreasing time order, ties
// broken by scheduling order, so a run is fully reproducible for a given
// seed.
//
// Events that arrive in time order bypass the queue in FIFO lanes merged
// under the same (time, seq) order: hook events (ScheduleHookAt) in one lane
// per hook — periodic re-arms, schedules built before the run — and
// word-payload deliveries in one lane per sink and fixed delay, so the
// paper's network, where every message takes the same time, schedules no
// delivery through the queue at all. The rest wait in one 4-ary heap whose
// keys carry (time, seq) inline; the tests hold it to a container/heap
// reference.
package sim

import (
	"fmt"
	"math"
)

// event is the payload of one queued entry; its (time, seq) ordering key lives
// in the queue's heap. Two representations share it: a closure event (fn
// non-nil) runs an arbitrary callback, while a typed delivery event (fn nil)
// carries a Delivery struct inline and hands it to its sink. The typed form exists so that the
// dominant event class of the simulator — message deliveries — never
// materializes a closure: scheduling a delivery copies a pointer-free struct
// into the queue's slab instead of allocating a capture on the heap.
type event struct {
	fn   func()       // closure event; nil for deliveries
	sink DeliverySink // delivery event; nil for closures
	d    Delivery
}

// Delivery is a typed message-delivery event: a payload travelling from one
// node to another. From and To are dense node indices; Kind/Word/Box mirror
// the compact payload representation of the protocol layer (a discriminator,
// a word-encoded payload, and a boxed fallback for payloads that do not fit
// in a word), but the engine never interprets them — it only moves the
// struct from ScheduleDelivery to the sink. For word-encoded payloads the
// struct is pointer-free, so a delivery costs zero heap allocations
// end to end.
type Delivery struct {
	From, To int32
	Kind     uint32
	Word     uint64
	Box      any
}

// DeliverySink consumes delivery events when they come due. The engine calls
// Deliver with virtual time already advanced to the event's time.
type DeliverySink interface {
	Deliver(d Delivery)
}

// Hook consumes hook events (see Engine.ScheduleHookAt) when they come due.
// The engine calls RunHook with virtual time already advanced to the event's
// time and the node index and word given at schedule time. Its method set is
// runtime.Hook's, so an environment passes a runtime.Hook straight through.
type Hook interface {
	RunHook(to int32, word uint64)
}

// hookThunk is the sink of a hook event that could not ride its hook's lane
// and waits in the queue instead: the hook travels in Delivery.Box. It is
// zero-size, so the queued event stays as small as any delivery's and the
// conversion to DeliverySink allocates nothing.
type hookThunk struct{}

func (hookThunk) Deliver(d Delivery) { d.Box.(Hook).RunHook(d.To, d.Word) }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: all events run on the goroutine that calls Run, RunUntil or
// Step. The zero value is a valid engine: its event queue, a 4-ary heap, is
// held by value and ready empty.
//
// Besides the queue, the engine keeps (time, seq)-sorted FIFO rings, lanes,
// for events whose times arrive in order, so only events that really need a
// priority queue pay for one. There is one hook lane per hook passed to
// ScheduleHookAt (periodic re-arms, a presorted schedule) and up to
// maxDeliveryLanes delivery lanes, each for one sink and one fixed delay of
// ScheduleDelivery, or for the deposits of ScheduleDeliveryAt (see
// ScheduleDelivery). Every run method pops the least of the queue head and
// the lane heads by (time, seq), the same total order a single queue would
// produce. An engine of more than lookaheadMinLane nodes with a Preloader
// (see SetPreloader) also tells it, in batches, which nodes its lanes' events
// act on next.
type Engine struct {
	q         queue
	lanes     []hookLane
	ndl       int // delivery lanes in use: dlanes[:ndl]
	now       float64
	seq       uint64
	processed uint64

	// preload is the preloader SetPreloader kept, nil for none. batch
	// carries the node indices of one Preload call: engine-owned, because a
	// stack array passed through the interface would escape and cost an
	// allocation per batch. preloadSum collects the calls' results so their
	// loads stay live; it is per engine, because shard engines run
	// concurrently.
	preload    Preloader
	batch      [LookaheadBatch]int32
	preloadSum uint64

	// missKey is the key of the last word delivery that found no lane (0
	// before the first); a second miss in a row with the same key opens a
	// lane.
	missKey float64
	dlanes  [maxDeliveryLanes]deliveryLane
}

// NewEngine returns an engine with virtual time 0 and nothing pending.
func NewEngine() *Engine { return &Engine{} }

// SetPreloader installs p as the engine's preloader if nodes, the number of
// nodes the engine's events act on, is more than lookaheadMinLane, and
// removes any preloader otherwise, so one gate covers every lane. From then
// on, every LookaheadBatch pops of a lane that leave at least 2K entries in
// it, the engine hands p the To of the lane's entries [head+K, head+2K) (see
// LookaheadBatch), whether the lane holds hook events or word deliveries.
// The To of every hook event and lane delivery must therefore name one of
// those nodes. Events held in the queue are never announced.
func (e *Engine) SetPreloader(p Preloader, nodes int) {
	e.preload = nil
	if nodes > lookaheadMinLane {
		e.preload = p
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled, not-yet-executed events, lanes
// included.
func (e *Engine) Pending() int {
	n := e.q.Len()
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	for i := range e.dlanes[:e.ndl] {
		n += e.dlanes[i].n
	}
	return n
}

// Processed returns the number of executed events.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs fn after the given delay of virtual time. A non-positive or
// NaN delay is treated as zero (the event runs at the current time, after all
// events already scheduled for that time). It panics on a nil callback.
func (e *Engine) Schedule(delay float64, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the given absolute virtual time. Times in the past are
// clamped to the current time. It panics on a nil callback.
func (e *Engine) At(t float64, fn func()) {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	e.q.push(t, e.seq, event{fn: fn})
}

// ScheduleDelivery schedules a typed delivery event after the given delay of
// virtual time: when the event comes due, sink.Deliver(d) runs with virtual
// time advanced to the delivery time. It is the allocation-free counterpart
// of Schedule for message traffic — the delivery is stored inline, so no
// closure is created. A non-positive or NaN delay is treated as zero. It
// panics on a nil sink.
//
// A word payload (Box nil) goes to the delivery lane of its sink and delay
// when it is not earlier than that lane's tail, which a fixed delay always
// guarantees; anything else goes to the queue. A delay gets a lane (for the
// sink at hand) when two word deliveries in a row find no lane and share it,
// up to maxDeliveryLanes lanes, so a continuous delay distribution never
// opens one.
func (e *Engine) ScheduleDelivery(delay float64, d Delivery, sink DeliverySink) {
	if sink == nil {
		panic("sim: ScheduleDelivery with nil sink")
	}
	if !(delay > 0) { // also NaN
		delay = 0
	}
	t := e.now + delay
	e.seq++
	if d.Box == nil && e.toLane(delay, t, &d, sink) {
		return
	}
	e.q.push(t, e.seq, event{sink: sink, d: d})
}

// toLane puts the word delivery d, due at t and just numbered e.seq, into
// the delivery lane of (sink, key), opening the lane on the second miss in a
// row with key, and reports whether a lane took it.
func (e *Engine) toLane(key, t float64, d *Delivery, sink DeliverySink) bool {
	for i := range e.dlanes[:e.ndl] {
		if l := &e.dlanes[i]; l.key == key && l.sink == sink {
			return l.push(t, e.seq, d)
		}
	}
	if key != e.missKey {
		e.missKey = key
		return false
	}
	if e.ndl == maxDeliveryLanes {
		return false
	}
	l := &e.dlanes[e.ndl]
	e.ndl++
	l.sink, l.key = sink, key
	return l.push(t, e.seq, d)
}

// Every schedules fn to run now+phase, now+phase+interval, ... until the
// engine stops or the callback returns false. It panics if interval is not
// positive or the callback is nil.
func (e *Engine) Every(phase, interval float64, fn func() bool) {
	if fn == nil {
		panic("sim: Every with nil callback")
	}
	if interval <= 0 || math.IsNaN(interval) {
		panic(fmt.Sprintf("sim: Every with non-positive interval %v", interval))
	}
	var tick func()
	tick = func() {
		if fn() {
			e.Schedule(interval, tick)
		}
	}
	e.Schedule(phase, tick)
}

// Step executes the single earliest pending event and reports whether an
// event was executed.
func (e *Engine) Step() bool {
	l, dl, _, ok := e.next()
	if ok {
		e.step(l, dl)
	}
	return ok
}

// next locates the earliest pending event: the hook lane or delivery lane
// whose head it is, both nil for the queue's head, and its time; ok is false
// when nothing is pending.
func (e *Engine) next() (l *hookLane, dl *deliveryLane, t float64, ok bool) {
	var seq uint64
	if len(e.q.keys) > 0 {
		h := &e.q.keys[0]
		t, seq, ok = h.time, h.seq, true
	}
	for i := range e.lanes {
		c := &e.lanes[i]
		if c.n == 0 {
			continue
		}
		if h := c.front(); !ok || h.time < t || (h.time == t && h.seq < seq) {
			l, t, seq, ok = c, h.time, h.seq, true
		}
	}
	for i := range e.dlanes[:e.ndl] {
		c := &e.dlanes[i]
		if c.n == 0 {
			continue
		}
		if h := &c.buf[c.head]; !ok || h.time < t || (h.time == t && h.seq < seq) {
			l, dl, t, seq, ok = nil, c, h.time, h.seq, true
		}
	}
	return l, dl, t, ok
}

// step pops and executes the event next located: the head of hook lane l,
// of delivery lane dl, or of the queue when both are nil.
func (e *Engine) step(l *hookLane, dl *deliveryLane) {
	if dl != nil {
		t, d := dl.pop()
		if e.preload != nil && lookaheadDue(dl.head, dl.n) {
			e.lookahead(nil, dl)
		}
		e.now = t
		e.processed++
		dl.sink.Deliver(d)
		return
	}
	if l != nil {
		hook := l.hook // a new lane registered by the callback may move l
		h := l.pop()
		if e.preload != nil && lookaheadDue(l.head, l.n) {
			e.lookahead(l, nil)
		}
		e.now = h.time
		e.processed++
		hook.RunHook(h.to, h.word)
		return
	}
	t, ev := e.q.pop()
	e.now = t
	e.processed++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.sink.Deliver(ev.d)
	}
}

// RunUntil executes events in time order until the queue is exhausted or
// the next event lies strictly after the horizon. Virtual time is advanced
// to the horizon on return, so repeated RunUntil calls with increasing
// horizons behave like one long run.
func (e *Engine) RunUntil(horizon float64) {
	for {
		l, dl, t, ok := e.next()
		if !ok || t > horizon {
			break
		}
		e.step(l, dl)
	}
	if horizon > e.now {
		e.now = horizon
	}
}

// RunBefore executes events strictly before the limit: it pops events while
// the next one's time is < limit, then advances virtual time to the limit.
// It is the window primitive of the sharded engine — a shard owns the
// half-open interval [now, limit) and events at exactly the limit belong to
// the next window — but composes with the other run methods on any engine.
func (e *Engine) RunBefore(limit float64) {
	for {
		l, dl, t, ok := e.next()
		if !ok || t >= limit {
			break
		}
		e.step(l, dl)
	}
	if limit > e.now {
		e.now = limit
	}
}

// NextTime returns the time of the earliest pending event, or false when
// nothing is pending.
func (e *Engine) NextTime() (float64, bool) {
	_, _, t, ok := e.next()
	return t, ok
}

// ScheduleDeliveryAt schedules a typed delivery event at the given absolute
// virtual time (see ScheduleDelivery). Times in the past and NaN are clamped
// to the current time. The sharded engine uses it to move cross-shard
// deliveries between engines without re-deriving their relative delay. Its
// word payloads share one lane key per sink, depositKey, and ride that lane
// under ScheduleDelivery's rules: a barrier's deposits from one source shard
// arrive in time order. It panics on a nil sink.
func (e *Engine) ScheduleDeliveryAt(t float64, d Delivery, sink DeliverySink) {
	if sink == nil {
		panic("sim: ScheduleDeliveryAt with nil sink")
	}
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	if d.Box == nil && e.toLane(depositKey, t, &d, sink) {
		return
	}
	e.q.push(t, e.seq, event{sink: sink, d: d})
}

// ScheduleHookAt schedules hook.RunHook(to, word) at the given absolute
// virtual time, with exactly the clamping, sequence numbering and (time, seq)
// position of ScheduleDeliveryAt. The event goes to hook's lane (created on
// first use) when the lane can take it in order — always before the lane is
// first inspected, and afterwards whenever t is not earlier than the lane's
// tail — and into the queue otherwise. A hook that re-arms itself at
// Now()+period, or one whose events are all scheduled before the run starts,
// therefore never touches the queue. Hooks are meant to be few and
// long-lived (the lanes are scanned on every event) and are matched to their
// lane with ==, so a hook's dynamic type must be comparable — a pointer,
// typically. It panics on a nil hook.
func (e *Engine) ScheduleHookAt(t float64, to int32, word uint64, hook Hook) {
	if hook == nil {
		panic("sim: ScheduleHookAt with nil hook")
	}
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	if e.lane(hook).push(t, e.seq, to, word) {
		return
	}
	e.q.push(t, e.seq, event{sink: hookThunk{}, d: Delivery{To: to, Word: word, Box: hook}})
}

// lane returns hook's lane, creating it on first use.
func (e *Engine) lane(hook Hook) *hookLane {
	for i := range e.lanes {
		if e.lanes[i].hook == hook {
			return &e.lanes[i]
		}
	}
	e.lanes = append(e.lanes, hookLane{hook: hook})
	return &e.lanes[len(e.lanes)-1]
}

// lookahead hands the preloader the To of the entries [head+K, head+2K) of
// the lane just popped — hook lane l, or delivery lane dl when l is nil —
// which lookaheadDue has checked exist.
func (e *Engine) lookahead(l *hookLane, dl *deliveryLane) {
	for k := range e.batch {
		if l != nil {
			e.batch[k] = l.buf[(l.head+LookaheadBatch+k)&(len(l.buf)-1)].to
		} else {
			e.batch[k] = dl.buf[(dl.head+LookaheadBatch+k)&(len(dl.buf)-1)].to
		}
	}
	e.preloadSum += e.preload.Preload(e.batch[:])
}
