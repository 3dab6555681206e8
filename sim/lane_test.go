package sim

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// laneRecord is one executed event as the lane differential tests see it:
// its time, the engine sequence number it was scheduled with, and the
// To/Word it carried. Word is unique per scheduled event, so equal record
// lists mean equal pop orders.
type laneRecord struct {
	time float64
	seq  uint64
	to   int32
	word uint64
}

// laneWorld drives one engine through a randomized schedule of closures,
// deliveries and three kinds of hook events, logging every executed event
// and every probe of the engine's accounting. hookAt is the scheduling path
// under test: ScheduleHookAt for the lane engine, ScheduleDeliveryAt for a
// reference of laneReferences, which keeps every event in its queue.
type laneWorld struct {
	e      scheduler
	hookAt func(t float64, to int32, word uint64, sink testSink)
	r      *rng.Source
	seqOf  map[uint64]uint64 // word → seq at scheduling
	nextID uint64
	log    []laneRecord
	probes []string

	tick, chaos, churn, deliver *laneSink
}

// laneSink is a hook (or delivery) target; its reaction to a delivered
// event is the kind's scheduling behaviour.
type laneSink struct {
	w    *laneWorld
	kind int32
}

const (
	kindTick = iota + 1
	kindChaos
	kindChurn
	kindDeliver
	kindClosure
)

// q quantizes times to quarters so equal-time ties between every event
// class are common.
func q(x float64) float64 { return float64(int64(x*4)) / 4 }

func (w *laneWorld) id() uint64 {
	w.nextID++
	return w.nextID
}

func (w *laneWorld) note(word uint64) { w.seqOf[word] = w.e.lastSeq() }

func (w *laneWorld) record(to int32, word uint64) {
	w.log = append(w.log, laneRecord{time: w.e.Now(), seq: w.seqOf[word], to: to, word: word})
}

func (w *laneWorld) scheduleHook(t float64, s *laneSink) {
	word := w.id()
	w.hookAt(t, s.kind, word, s)
	w.note(word)
}

func (w *laneWorld) scheduleClosure(t float64) {
	word := w.id()
	w.e.At(t, func() {
		w.record(kindClosure, word)
		w.react()
	})
	w.note(word)
}

func (w *laneWorld) scheduleDelivery(t float64) {
	word := w.id()
	w.e.ScheduleDeliveryAt(t, Delivery{To: kindDeliver, Word: word}, w.deliver)
	w.note(word)
}

// react is what closures and deliveries do when they run: schedule a few
// more events of random classes, some in the past (clamped to now), some at
// exactly now, some far ahead — including hooks for the tick and churn sinks
// that land before those lanes' tails and must fall back to the queue.
func (w *laneWorld) react() {
	if w.e.Processed() > 6000 {
		return
	}
	now := w.e.Now()
	for k := w.r.Intn(3); k > 0; k-- {
		t := q(now + w.r.Float64()*6 - 1)
		switch w.r.Intn(5) {
		case 0:
			w.scheduleClosure(t)
		case 1:
			w.scheduleDelivery(t)
		case 2:
			w.scheduleHook(t, w.chaos)
		case 3:
			w.scheduleHook(t, w.tick)
		default:
			w.scheduleHook(q(now+w.r.Float64()*40), w.churn)
		}
	}
}

func (s *laneSink) Deliver(d Delivery) {
	w := s.w
	if d.To != s.kind {
		panic(fmt.Sprintf("sink %d received To = %d", s.kind, d.To))
	}
	w.record(d.To, d.Word)
	switch s.kind {
	case kindTick:
		// A periodic hook re-arms one period later: always at or after the
		// lane's tail.
		if w.e.Processed() < 6000 {
			w.scheduleHook(w.e.Now()+1, w.tick)
		}
	case kindChaos:
		// Out-of-order pushes: anywhere from the past to a few periods on.
		if w.e.Processed() < 6000 && w.r.Float64() < 0.7 {
			w.scheduleHook(q(w.e.Now()+w.r.Float64()*4-1), w.chaos)
		}
	default:
		w.react()
	}
}

func (s *laneSink) RunHook(to int32, word uint64) { s.Deliver(Delivery{To: to, Word: word}) }

// run builds the schedule, then drives it with a random interleaving of the
// engine's run methods and accounting probes.
func (w *laneWorld) run() {
	w.tick = &laneSink{w: w, kind: kindTick}
	w.chaos = &laneSink{w: w, kind: kindChaos}
	w.churn = &laneSink{w: w, kind: kindChurn}
	w.deliver = &laneSink{w: w, kind: kindDeliver}
	// Before the first pop: every class pushed in random time order.
	for i := 0; i < 400; i++ {
		switch w.r.Intn(6) {
		case 0, 1:
			w.scheduleHook(q(w.r.Float64()), w.tick)
		case 2:
			w.scheduleHook(q(w.r.Float64()*60), w.churn)
		case 3:
			w.scheduleHook(q(w.r.Float64()*3), w.chaos)
		case 4:
			w.scheduleClosure(q(w.r.Float64() * 5))
		default:
			w.scheduleDelivery(q(w.r.Float64() * 5))
		}
	}
	horizon := 0.0
	for w.e.Pending() > 0 && len(w.probes) < 4000 {
		t, ok := w.e.NextTime()
		w.probes = append(w.probes, fmt.Sprintf("next %v %v pending %d processed %d now %v",
			t, ok, w.e.Pending(), w.e.Processed(), w.e.Now()))
		switch w.r.Intn(4) {
		case 0:
			for k := w.r.Intn(20); k > 0; k-- {
				w.e.Step()
			}
		case 1:
			horizon = q(horizon + w.r.Float64()*3)
			w.e.RunUntil(horizon)
		case 2:
			horizon = q(horizon + w.r.Float64()*3)
			w.e.RunBefore(horizon)
		default:
			// Push from outside any event, at a parked clock.
			w.scheduleHook(q(w.e.Now()+w.r.Float64()*2), w.chaos)
			w.scheduleHook(q(w.e.Now()+w.r.Float64()*2), w.tick)
		}
	}
	w.e.run()
	w.probes = append(w.probes, fmt.Sprintf("end pending %d processed %d now %v",
		w.e.Pending(), w.e.Processed(), w.e.Now()))
}

// TestHookLanesMatchQueue is the differential test of the hook lanes: the
// same randomized schedule run once with hooks in lanes and once with every
// hook in the queue (ScheduleDeliveryAt on each of the laneReferences, one
// subtest per reference) must execute the same events in the same
// (time, seq) order and report the same NextTime/Pending/Processed at every
// probe. The schedule pushes hooks unordered before the first pop, re-arms
// periodic hooks from their own callbacks, pushes hooks behind their lane's
// tail after the first pop (the queue fallback) and ties every event class
// at equal times.
func TestHookLanesMatchQueue(t *testing.T) {
	for _, rc := range laneReferences {
		t.Run(rc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				e := NewEngine()
				lanes := &laneWorld{e: e, r: rng.New(seed), seqOf: map[uint64]uint64{}}
				var fallbacks, taken int
				lanes.hookAt = func(t float64, to int32, word uint64, sink testSink) {
					before := e.q.Len()
					e.ScheduleHookAt(t, to, word, sink)
					if e.q.Len() > before {
						fallbacks++
					} else {
						taken++
					}
				}
				lanes.run()

				ref := &laneWorld{e: rc.new(), r: rng.New(seed), seqOf: map[uint64]uint64{}}
				ref.hookAt = func(t float64, to int32, word uint64, sink testSink) {
					ref.e.ScheduleDeliveryAt(t, Delivery{To: to, Word: word}, sink)
				}
				ref.run()

				if len(lanes.log) < 5000 {
					t.Fatalf("seed %d: only %d events executed; the schedule should run thousands", seed, len(lanes.log))
				}
				for i := range ref.log {
					if i >= len(lanes.log) || lanes.log[i] != ref.log[i] {
						t.Fatalf("seed %d: event %d differs: lanes %+v, %s %+v", seed, i, at(lanes.log, i), rc.name, ref.log[i])
					}
				}
				if len(lanes.log) != len(ref.log) {
					t.Fatalf("seed %d: lanes executed %d events, %s %d", seed, len(lanes.log), rc.name, len(ref.log))
				}
				if !reflect.DeepEqual(lanes.probes, ref.probes) {
					for i := range ref.probes {
						if i >= len(lanes.probes) || lanes.probes[i] != ref.probes[i] {
							t.Fatalf("seed %d: probe %d differs:\nlanes %s\n%s %s", seed, i, at(lanes.probes, i), rc.name, ref.probes[i])
						}
					}
					t.Fatalf("seed %d: lanes took %d probes, %s %d", seed, len(lanes.probes), rc.name, len(ref.probes))
				}
				if fallbacks < 100 || taken < 300 {
					t.Fatalf("seed %d: %d hooks in lanes, %d fell back to the queue; want both paths exercised",
						seed, taken, fallbacks)
				}
			}
		})
	}
}

func at[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// countSink re-arms itself one period after every delivery: the shape of
// the Host's proactive tick.
type countSink struct {
	e      *Engine
	period float64
	n      int
}

func (s *countSink) Deliver(d Delivery) {
	s.n++
	s.e.ScheduleHookAt(s.e.Now()+s.period, d.To, d.Word, s)
}

func (s *countSink) RunHook(to int32, word uint64) { s.Deliver(Delivery{To: to, Word: word}) }

// TestHookLaneRearmAllocs guards the lane's steady state: once the ring has
// grown, a hook that re-arms from its own callback allocates nothing.
func TestHookLaneRearmAllocs(t *testing.T) {
	e := NewEngine()
	s := &countSink{e: e, period: 1}
	r := rng.New(5)
	for i := int32(0); i < 100; i++ {
		e.ScheduleHookAt(r.Float64(), i, 0, s)
	}
	e.RunUntil(3) // sort once, settle
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("self-re-arming hook allocates %.1f per event, want 0", allocs)
	}
	if e.q.Len() != 0 {
		t.Errorf("queue holds %d events; every re-arm should append to the lane", e.q.Len())
	}
}

// behindHook re-arms one period later from every event, but its lane's tail
// lies far in the future, so every re-arm takes the queue fallback.
type behindHook struct {
	e         *Engine
	n         int
	lastTo    int32
	lastWord  uint64
	wordsSeen bool // every word so far was its predecessor's + 1
}

func (h *behindHook) RunHook(to int32, word uint64) {
	if h.n > 0 && word != h.lastWord+1 {
		h.wordsSeen = false
	}
	h.n++
	h.lastTo, h.lastWord = to, word
	h.e.ScheduleHookAt(h.e.Now()+1, to, word+1, h)
}

// TestHookQueueFallbackAllocs guards the queue path of hook events: an event
// behind its lane's tail waits in the heap as a delivery to the zero-size
// thunk sink, with the hook in Delivery.Box. It must reach the hook with the
// node and word it was scheduled with, and cost no allocation once the heap
// has grown.
func TestHookQueueFallbackAllocs(t *testing.T) {
	e := NewEngine()
	h := &behindHook{e: e, wordsSeen: true}
	e.ScheduleHookAt(1e9, 0, 0, h) // the lane's tail: everything else falls behind it
	e.RunUntil(0)                  // inspect the lane, so it only takes in-order entries
	e.ScheduleHookAt(1, 7, 100, h)
	if e.q.Len() != 1 {
		t.Fatalf("queue holds %d events after a hook behind its lane's tail, want 1", e.q.Len())
	}
	e.RunUntil(10)
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("queued hook event allocates %.1f per event, want 0", allocs)
	}
	if h.n < 1000 || h.lastTo != 7 || !h.wordsSeen || h.lastWord != 100+uint64(h.n)-1 {
		t.Errorf("hook ran %d times, last (to %d, word %d), consecutive words %v; want ≥ 1000 runs on node 7 with words 100, 101, ...",
			h.n, h.lastTo, h.lastWord, h.wordsSeen)
	}
}

// TestHookLanesKeepQueueEmpty is the structural guard for the hook event
// population (a large static far-future schedule beside a dense periodic
// band): with 10^4 self-re-arming hooks and 10^4 far-future hooks scheduled
// before the first pop, in random order, the queue stays empty for the whole
// run, so the heap never sifts that population.
func TestHookLanesKeepQueueEmpty(t *testing.T) {
	const n = 10_000
	e := NewEngine()
	ticks := &countSink{e: e, period: 172.8}
	far := &nullSink{}
	r := rng.New(9)
	for i := int32(0); i < n; i++ {
		e.ScheduleHookAt(r.Float64()*172.8, i, 0, ticks)
		// One to two days of transitions ahead, the shape of a churn
		// trace scheduled at assembly.
		e.ScheduleHookAt(86400*(1+r.Float64()), i, 1, far)
	}
	for e.Now() < 5*172.8 {
		if !e.Step() {
			t.Fatal("engine ran dry")
		}
		if l := e.q.Len(); l != 0 {
			t.Fatalf("after %d events the queue holds %d; hook events belong in lanes", e.Processed(), l)
		}
	}
	if e.Pending() != 2*n {
		t.Fatalf("Pending = %d, want %d (one tick and one far-future hook per node)", e.Pending(), 2*n)
	}
	e.RunUntil(3 * 86400)
	if far.n != n || e.q.Len() != 0 {
		t.Fatalf("far-future hooks delivered %d of %d, queue holds %d", far.n, n, e.q.Len())
	}
}

// shardLaneWorld is the sharded counterpart of laneWorld: periodic hooks on
// every shard that send cross- and intra-shard deliveries, out-of-order
// hooks on the shards, presorted and self-re-arming hooks on the
// coordinator. Every log is written by exactly one goroutine (a shard's
// worker, or the coordinator at barriers) and compared per log, since the
// interleaving across shards is not part of the contract.
type shardLaneWorld struct {
	se     *ShardedEngine
	n      int
	hookAt func(s int, t float64, to int32, word uint64, sink testSink) // s < 0: coordinator
	rngs   []*rng.Source                                                // per node, shard-owned
	coordR *rng.Source
	logs   [][]laneRecord // per shard, then the coordinator's
	// fallbacks counts, per engine in the same layout, lane-path hooks that
	// went to the queue.
	fallbacks []int
	sinks     struct{ tick, chaos, coord, churn shardLaneSink }
}

type shardLaneSink struct {
	w    *shardLaneWorld
	kind int32
}

func (w *shardLaneWorld) record(s int, now float64, to int32, word uint64) {
	w.logs[s] = append(w.logs[s], laneRecord{time: now, to: to, word: word})
}

func (s *shardLaneSink) Deliver(d Delivery) {
	w, se := s.w, s.w.se
	switch s.kind {
	case kindTick, kindChaos:
		node := int(d.To)
		sh := int(se.shardOf(d.To))
		now := se.ShardNow(sh)
		w.record(sh, now, d.To, d.Word|uint64(s.kind)<<56)
		r := w.rngs[node]
		if s.kind == kindTick {
			se.Send(1+q(r.Float64()*2), Delivery{From: d.To, To: int32(r.Intn(w.n)), Word: d.Word})
			w.hookAt(sh, now+1, d.To, d.Word+1, &w.sinks.tick)
			if r.Float64() < 0.2 {
				// Anywhere in the next 0.9 s, so often behind the chaos
				// lane's tail: the queue fallback on a shard.
				w.hookAt(sh, q(now+r.Float64()*0.9), d.To, d.Word+1<<40, &w.sinks.chaos)
			}
		}
	case kindChurn, kindClosure:
		w.record(len(w.logs)-1, se.Now(), d.To, d.Word|uint64(s.kind)<<56)
		if s.kind == kindClosure && se.Now() < 40 {
			w.hookAt(-1, se.Now()+q(1+w.coordR.Float64()*3), d.To, d.Word+1, &w.sinks.coord)
		}
	}
}

func (s *shardLaneSink) RunHook(to int32, word uint64) { s.Deliver(Delivery{To: to, Word: word}) }

// deliverSink logs cross- and intra-shard deliveries on the destination
// shard's log.
type shardLaneDeliver struct{ w *shardLaneWorld }

func (s shardLaneDeliver) Deliver(d Delivery) {
	sh := int(s.w.se.shardOf(d.To))
	s.w.record(sh, s.w.se.ShardNow(sh), d.To, d.Word|uint64(kindDeliver)<<56)
}

// runShardLaneWorld runs the sharded schedule and returns its logs and, with
// lanes, the per-engine fallback counts.
func runShardLaneWorld(t *testing.T, shards int, seed uint64, lanes bool) ([][]laneRecord, []int) {
	t.Helper()
	const n = 24
	shardOf := make([]int32, n)
	for i := range shardOf {
		shardOf[i] = int32(i % shards)
	}
	se, err := NewShardedEngine(byTable(shards, shardOf, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	w := &shardLaneWorld{se: se, n: n, coordR: rng.New(rng.Derive(seed, 1000)), logs: make([][]laneRecord, shards+1)}
	w.sinks.tick = shardLaneSink{w: w, kind: kindTick}
	w.sinks.chaos = shardLaneSink{w: w, kind: kindChaos}
	w.sinks.coord = shardLaneSink{w: w, kind: kindClosure}
	w.sinks.churn = shardLaneSink{w: w, kind: kindChurn}
	if lanes {
		w.fallbacks = make([]int, shards+1)
		w.hookAt = func(s int, t float64, to int32, word uint64, sink testSink) {
			e, log := se.coord, shards
			if s >= 0 {
				e, log = se.engines[s], s
			}
			before := e.q.Len()
			if s < 0 {
				se.ScheduleHookAt(t, to, word, sink)
			} else {
				se.ShardScheduleHookAt(s, t, to, word, sink)
			}
			if e.q.Len() > before {
				w.fallbacks[log]++
			}
		}
	} else {
		noDeliveryLanes(se.coord)
		for _, e := range se.engines {
			noDeliveryLanes(e)
		}
		w.hookAt = func(s int, t float64, to int32, word uint64, sink testSink) {
			e := se.coord
			if s >= 0 {
				e = se.engines[s]
			}
			e.ScheduleDeliveryAt(t, Delivery{To: to, Word: word}, sink)
		}
	}
	se.SetSink(shardLaneDeliver{w: w})
	w.rngs = make([]*rng.Source, n)
	setup := rng.New(seed)
	for i := 0; i < n; i++ {
		w.rngs[i] = rng.New(rng.Derive(seed, uint64(i)))
		w.hookAt(int(shardOf[i]), q(setup.Float64()), int32(i), uint64(i)<<44, &w.sinks.tick)
		// Presorted coordinator transitions, pushed in random time order.
		for k := 0; k < 3; k++ {
			w.hookAt(-1, q(setup.Float64()*45), int32(i), uint64(i)<<44|uint64(k)<<20, &w.sinks.churn)
		}
	}
	w.hookAt(-1, 0.5, -1, 1<<43, &w.sinks.coord)
	for _, h := range []float64{7.25, 19, 33.5, 50} {
		se.RunUntil(h)
	}
	return w.logs, w.fallbacks
}

// TestShardHookLanesMatchQueue is the sharded differential test of the hook
// lanes: per-shard and coordinator event logs with hooks in lanes must equal
// those of the same run with every hook in the queues, for 1, 2 and 4
// shards. Named …Shard… so CI's sharded race soak runs it.
func TestShardHookLanesMatchQueue(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				got, fallbacks := runShardLaneWorld(t, shards, seed, true)
				want, _ := runShardLaneWorld(t, shards, seed, false)
				total := 0
				for s := range want {
					total += len(want[s])
					if !reflect.DeepEqual(got[s], want[s]) {
						for i := range want[s] {
							if i >= len(got[s]) || got[s][i] != want[s][i] {
								t.Fatalf("shards=%d seed %d log %d: event %d differs: lanes %+v, queue-only %+v",
									shards, seed, s, i, at(got[s], i), want[s][i])
							}
						}
						t.Fatalf("shards=%d seed %d log %d: lanes logged %d events, queue-only %d",
							shards, seed, s, len(got[s]), len(want[s]))
					}
				}
				if total < 1500 {
					t.Fatalf("shards=%d seed %d: only %d events logged", shards, seed, total)
				}
				for s, f := range fallbacks[:shards] {
					if f == 0 {
						t.Fatalf("shards=%d seed %d: no hook on shard %d fell back to the queue", shards, seed, s)
					}
				}
			}
		})
	}
}
