package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// noDeliveryLanes fills e's delivery lane slots with lanes no delivery can
// match (a NaN key), so every delivery takes the queue: the reference the
// delivery lane tests compare against.
func noDeliveryLanes(e *Engine) *Engine {
	for i := range e.dlanes {
		e.dlanes[i].key = math.NaN()
	}
	e.ndl = maxDeliveryLanes
	return e
}

// dlaneCase is one delivery pattern of the differential test. delay draws
// the relative delay of the next delivery; with deposit set, deliveries are
// scheduled by ScheduleDeliveryAt at now+delay instead, a fifth of them
// anywhere in the next three seconds (often behind the lane's tail); boxed
// is the share of deliveries with a boxed payload; mix adds hooks and
// closures.
type dlaneCase struct {
	name    string
	delay   func(w *dlaneWorld) float64
	deposit bool
	boxed   float64
	mix     bool
	// lanes is whether the case must open a delivery lane.
	lanes bool
}

var dlaneCases = []dlaneCase{
	{name: "constant", delay: func(*dlaneWorld) float64 { return 1.728 }, lanes: true},
	// Strict alternation never sees a key twice in a row, so it opens no
	// lane: the price of keeping one-off keys out of the four lanes.
	{name: "alternating", delay: func(w *dlaneWorld) float64 {
		w.calls++
		if w.calls%2 == 0 {
			return 0.5
		}
		return 3
	}},
	{name: "continuous", delay: func(w *dlaneWorld) float64 { return w.r.Float64() * 3 }},
	{name: "boxed", delay: func(*dlaneWorld) float64 { return 1.728 }, boxed: 0.5, lanes: true},
	{name: "deposits", delay: func(*dlaneWorld) float64 { return 3 }, deposit: true, lanes: true},
	{name: "hooks-closures", delay: func(w *dlaneWorld) float64 {
		if w.r.Float64() < 0.125 {
			return 0.5
		}
		return 3
	}, mix: true, lanes: true},
}

// dlaneWorld drives one engine through a self-sustaining cascade of
// deliveries to two sinks, shaped by its case, logging every executed event
// and every probe of the engine's accounting.
type dlaneWorld struct {
	c      dlaneCase
	e      scheduler
	ref    bool // a reference: hooks go through ScheduleDeliveryAt
	r      *rng.Source
	calls  int
	nextID uint64
	log    []laneRecord
	probes []string
	sinks  [2]*dlaneSink
	tick   *dlaneSink
}

type dlaneSink struct {
	w    *dlaneWorld
	kind int32
}

// Every delivery's From and Kind are derived from its Word, and a boxed one
// carries the Word in Box, so the sink can check the lane kept them.
func fromOf(word uint64) int32  { return int32(word % 1000) }
func kindOf(word uint64) uint32 { return uint32(word % 7) }

func (w *dlaneWorld) deliver() {
	w.nextID++
	word := w.nextID
	d := Delivery{From: fromOf(word), To: int32(word % 2), Kind: kindOf(word), Word: word}
	if w.r.Float64() < w.c.boxed {
		d.Box = word
	}
	sink := w.sinks[d.To]
	delay := w.c.delay(w)
	if !w.c.deposit {
		w.e.ScheduleDelivery(delay, d, sink)
		return
	}
	t := w.e.Now() + delay
	if w.r.Float64() < 0.2 {
		t = q(w.e.Now() + w.r.Float64()*3)
	}
	w.e.ScheduleDeliveryAt(t, d, sink)
}

func (w *dlaneWorld) hook(t float64) {
	w.nextID++
	if w.ref {
		w.e.ScheduleDeliveryAt(t, Delivery{To: kindTick, Word: w.nextID}, w.tick)
	} else {
		w.e.ScheduleHookAt(t, kindTick, w.nextID, w.tick)
	}
}

func (w *dlaneWorld) closure(t float64) {
	w.nextID++
	word := w.nextID
	w.e.At(t, func() {
		w.log = append(w.log, laneRecord{time: w.e.Now(), to: kindClosure, word: word})
		w.react()
	})
}

// react schedules the cascade's next events: about one delivery per
// delivery run, and with mix set a closure or an out-of-order hook now and
// then.
func (w *dlaneWorld) react() {
	if w.e.Processed() > 6000 {
		return
	}
	for k := w.r.Intn(3); k > 0; k-- {
		w.deliver()
	}
	if w.c.mix && w.r.Float64() < 0.1 {
		w.closure(q(w.e.Now() + w.r.Float64()*4))
		w.hook(q(w.e.Now() + w.r.Float64()*2))
	}
}

func (s *dlaneSink) Deliver(d Delivery) {
	w := s.w
	if s.kind == kindTick {
		w.log = append(w.log, laneRecord{time: w.e.Now(), to: d.To, word: d.Word})
		if w.e.Processed() < 6000 {
			w.hook(w.e.Now() + 1)
		}
		return
	}
	if d.To != s.kind || d.From != fromOf(d.Word) || d.Kind != kindOf(d.Word) || (d.Box != nil && d.Box != d.Word) {
		panic(fmt.Sprintf("sink %d received a corrupted delivery %+v", s.kind, d))
	}
	w.log = append(w.log, laneRecord{time: w.e.Now(), to: d.To, word: d.Word})
	w.react()
}

func (s *dlaneSink) RunHook(to int32, word uint64) { s.Deliver(Delivery{To: to, Word: word}) }

// run seeds the cascade, then drives it with a random interleaving of the
// engine's run methods and accounting probes.
func (w *dlaneWorld) run() {
	w.sinks = [2]*dlaneSink{{w: w, kind: 0}, {w: w, kind: 1}}
	w.tick = &dlaneSink{w: w, kind: kindTick}
	for i := 0; i < 200; i++ {
		w.deliver()
	}
	if w.c.mix {
		for i := 0; i < 20; i++ {
			w.hook(q(w.r.Float64()))
			w.closure(q(w.r.Float64() * 5))
		}
	}
	horizon := 0.0
	for w.e.Pending() > 0 && len(w.probes) < 4000 {
		t, ok := w.e.NextTime()
		w.probes = append(w.probes, fmt.Sprintf("next %v %v pending %d processed %d now %v",
			t, ok, w.e.Pending(), w.e.Processed(), w.e.Now()))
		switch w.r.Intn(3) {
		case 0:
			for k := w.r.Intn(20); k > 0; k-- {
				w.e.Step()
			}
		case 1:
			horizon = q(horizon + w.r.Float64()*3)
			w.e.RunUntil(horizon)
		default:
			horizon = q(horizon + w.r.Float64()*3)
			w.e.RunBefore(horizon)
		}
	}
	w.e.run()
	w.probes = append(w.probes, fmt.Sprintf("end pending %d processed %d now %v",
		w.e.Pending(), w.e.Processed(), w.e.Now()))
}

// laneReferences are the schedulers the lane differential tests hold the
// lane engine to: the engine itself with its delivery lanes disabled, so
// every delivery (and every hook the world schedules as a delivery) waits in
// its heap, and refEngine, one container/heap holding every event, which
// shares no scheduling code with Engine.
var laneReferences = []struct {
	name string
	new  func() scheduler
}{
	{"heap", func() scheduler { return noDeliveryLanes(NewEngine()) }},
	{"container-heap", func() scheduler { return &refEngine{} }},
}

// TestDeliveryLanesMatchHeap is the differential test of the delivery
// lanes: each delivery pattern, run with lanes, must execute the same events
// in the same order and report the same NextTime/Pending/Processed at every
// probe as each of the laneReferences, one subtest per reference.
func TestDeliveryLanesMatchHeap(t *testing.T) {
	for _, c := range dlaneCases {
		t.Run(c.name, func(t *testing.T) {
			for _, ref := range laneReferences {
				t.Run(ref.name, func(t *testing.T) {
					for seed := uint64(1); seed <= 3; seed++ {
						e := NewEngine()
						got := &dlaneWorld{c: c, e: e, r: rng.New(seed)}
						got.run()
						want := &dlaneWorld{c: c, e: ref.new(), ref: true, r: rng.New(seed)}
						want.run()

						if len(want.log) < 5000 {
							t.Fatalf("seed %d: only %d events executed; the cascade should run thousands", seed, len(want.log))
						}
						for i := range want.log {
							if i >= len(got.log) || got.log[i] != want.log[i] {
								t.Fatalf("seed %d: event %d differs: lanes %+v, %s %+v", seed, i, at(got.log, i), ref.name, want.log[i])
							}
						}
						if len(got.log) != len(want.log) {
							t.Fatalf("seed %d: lanes executed %d events, %s %d", seed, len(got.log), ref.name, len(want.log))
						}
						if !reflect.DeepEqual(got.probes, want.probes) {
							for i := range want.probes {
								if i >= len(got.probes) || got.probes[i] != want.probes[i] {
									t.Fatalf("seed %d: probe %d differs:\nlanes %s\n%s %s", seed, i, at(got.probes, i), ref.name, want.probes[i])
								}
							}
							t.Fatalf("seed %d: lanes took %d probes, %s %d", seed, len(got.probes), ref.name, len(want.probes))
						}
						if opened := e.ndl > 0; opened != c.lanes {
							t.Fatalf("seed %d: %d delivery lanes opened, want lanes = %v", seed, e.ndl, c.lanes)
						}
					}
				})
			}
		})
	}
}

// TestContinuousDelaysOpenNoLane pins the lane key rule: deliveries whose
// delays come from a continuous distribution never repeat a key, so they
// never open a lane and all go to the queue, while a fixed delay opens its
// lane at its second delivery and keeps every later one out of the queue.
func TestContinuousDelaysOpenNoLane(t *testing.T) {
	r := rng.New(3)
	sink := &nullSink{}
	e := NewEngine()
	for i := 0; i < 10_000; i++ {
		e.ScheduleDelivery(math.Exp(0.5*r.NormFloat64()), Delivery{Word: uint64(i)}, sink) // log-normal
		e.ScheduleDelivery(r.ExpFloat64()*1.728, Delivery{Word: uint64(i)}, sink)
		e.Step()
	}
	if e.ndl != 0 || e.q.Len() != e.Pending() {
		t.Fatalf("continuous delays opened %d lanes; the queue holds %d of %d pending", e.ndl, e.q.Len(), e.Pending())
	}
	e.run()

	e.ScheduleDelivery(1.728, Delivery{}, sink)
	e.ScheduleDelivery(1.728, Delivery{}, sink)
	if e.ndl != 1 || e.q.Len() != 1 {
		t.Fatalf("two fixed-delay deliveries in a row: %d lanes, %d queued; want the second in a new lane", e.ndl, e.q.Len())
	}
	for i := 0; i < 1000; i++ {
		e.ScheduleDelivery(1.728, Delivery{Word: uint64(i)}, sink)
		e.Step()
	}
	if e.q.Len() != 0 {
		t.Fatalf("fixed-delay deliveries left %d events in the queue, want 0", e.q.Len())
	}
}

// TestDeliveryLaneCap pins the lane cap: more fixed delays than lanes open
// exactly maxDeliveryLanes lanes, the rest stay in the queue, and the order
// is still the queue's.
func TestDeliveryLaneCap(t *testing.T) {
	sink := &recordingSink{}
	e := NewEngine()
	sink.e = e
	for k := 1; k <= 2*maxDeliveryLanes; k++ {
		for i := 0; i < 3; i++ {
			e.ScheduleDelivery(float64(k), Delivery{Word: uint64(10*k + i)}, sink)
		}
	}
	if e.ndl != maxDeliveryLanes {
		t.Fatalf("%d fixed delays opened %d lanes, want the cap %d", 2*maxDeliveryLanes, e.ndl, maxDeliveryLanes)
	}
	e.run()
	for i := 1; i < len(sink.got); i++ {
		if sink.got[i].Word < sink.got[i-1].Word {
			t.Fatalf("deliveries ran out of order: %v", sink.got)
		}
	}
}

// shardDLaneWorld is the sharded workload of the delivery lane tests: every
// node ticks once a second and sends to a random node, 0.5 s ahead within
// its zone and 3 s ahead across zones, shards owning whole zones as under
// netmodel.Zones. With mixed set, some sends carry a boxed payload or a
// continuous delay. Each shard logs the deliveries it runs.
type shardDLaneWorld struct {
	se    *ShardedEngine
	n     int
	mixed bool
	rngs  []*rng.Source
	logs  [][]laneRecord
	maxQ  []int // per shard, the most events its queue held at a delivery after warm-up
}

const dlaneZones = 8

type shardDLaneTick struct{ w *shardDLaneWorld }

func (s *shardDLaneTick) Deliver(d Delivery) {
	w, se := s.w, s.w.se
	node := int(d.To)
	sh := int(se.shardOf(d.To))
	r := w.rngs[node]
	to := r.Intn(w.n)
	delay := 3.0
	if to%dlaneZones == node%dlaneZones {
		delay = 0.5
	}
	m := Delivery{From: d.To, To: int32(to), Word: d.Word}
	if w.mixed {
		switch x := r.Float64(); {
		case x < 0.1:
			m.Box = d.Word
		case x < 0.2:
			delay = 3 + r.Float64()
		}
	}
	se.Send(delay, m)
	if now := se.ShardNow(sh); now < 40 {
		se.ShardScheduleHookAt(sh, now+1, d.To, d.Word+1, s)
	}
}

func (s *shardDLaneTick) RunHook(to int32, word uint64) { s.Deliver(Delivery{To: to, Word: word}) }

type shardDLaneDeliver struct{ w *shardDLaneWorld }

func (s shardDLaneDeliver) Deliver(d Delivery) {
	w := s.w
	sh := int(w.se.shardOf(d.To))
	if d.Box != nil && d.Box != d.Word {
		panic(fmt.Sprintf("corrupted boxed delivery %+v", d))
	}
	now := w.se.ShardNow(sh)
	w.logs[sh] = append(w.logs[sh], laneRecord{time: now, to: d.To, word: d.Word | uint64(d.From)<<40})
	if now > 10 {
		// By now the first misses that open the lanes have run.
		w.maxQ[sh] = max(w.maxQ[sh], w.se.engines[sh].q.Len())
	}
}

func runShardDLaneWorld(t *testing.T, shards int, seed uint64, mixed, lanes bool) *shardDLaneWorld {
	t.Helper()
	const n = 64
	shardOf := make([]int32, n)
	for i := range shardOf {
		shardOf[i] = int32(i % dlaneZones % shards)
	}
	se, err := NewShardedEngine(byTable(shards, shardOf, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	if !lanes {
		for _, e := range se.engines {
			noDeliveryLanes(e)
		}
	}
	w := &shardDLaneWorld{se: se, n: n, mixed: mixed, logs: make([][]laneRecord, shards), maxQ: make([]int, shards)}
	se.SetSink(shardDLaneDeliver{w: w})
	tick := &shardDLaneTick{w: w}
	setup := rng.New(seed)
	w.rngs = make([]*rng.Source, n)
	for i := 0; i < n; i++ {
		w.rngs[i] = rng.New(rng.Derive(seed, uint64(i)))
		se.ShardScheduleHookAt(int(shardOf[i]), setup.Float64(), int32(i), uint64(i)<<20, tick)
	}
	for _, h := range []float64{7.25, 19, 50} {
		se.RunUntil(h)
	}
	return w
}

// TestShardDeliveryLanesMatchHeap is the sharded differential test of the
// delivery lanes, for 2 and 4 shards: every shard's delivery log, with
// intra-shard sends and barrier deposits in lanes, must equal the log of
// the same run with every delivery in the heap. With fixed
// delays only, two shards keep their queues empty once the lanes are open:
// each receives deposits from one source, in time order. Named …Shard…Lane… so CI's sharded race
// soak runs it.
func TestShardDeliveryLanesMatchHeap(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, mixed := range []bool{false, true} {
				for seed := uint64(1); seed <= 3; seed++ {
					got := runShardDLaneWorld(t, shards, seed, mixed, true)
					want := runShardDLaneWorld(t, shards, seed, mixed, false)
					total := 0
					for s := range want.logs {
						total += len(want.logs[s])
						if !reflect.DeepEqual(got.logs[s], want.logs[s]) {
							for i := range want.logs[s] {
								if i >= len(got.logs[s]) || got.logs[s][i] != want.logs[s][i] {
									t.Fatalf("shards=%d mixed=%v seed %d shard %d: delivery %d differs: lanes %+v, heap %+v",
										shards, mixed, seed, s, i, at(got.logs[s], i), want.logs[s][i])
								}
							}
							t.Fatalf("shards=%d mixed=%v seed %d shard %d: lanes logged %d deliveries, heap %d",
								shards, mixed, seed, s, len(got.logs[s]), len(want.logs[s]))
						}
						if got.se.engines[s].ndl == 0 {
							t.Fatalf("shards=%d mixed=%v seed %d: shard %d opened no delivery lane", shards, mixed, seed, s)
						}
						if shards == 2 && !mixed && got.maxQ[s] != 0 {
							t.Fatalf("seed %d: shard %d's queue held %d events; fixed delays on two shards belong in lanes",
								seed, s, got.maxQ[s])
						}
					}
					if total < 2000 {
						t.Fatalf("shards=%d mixed=%v seed %d: only %d deliveries logged", shards, mixed, seed, total)
					}
				}
			}
		})
	}
}
