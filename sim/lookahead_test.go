package sim

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// TestHookLaneSize pins the hook lane to its 64-byte size class: the lanes
// of different shard engines are separate small heap objects, so a lane
// grown past 64 bytes would share a cache line with a neighbouring shard's
// lane. It also pins what a lane stores per event — 32 bytes for a hook,
// 40 for a delivery, against the queue's 24-byte heap key plus 64-byte slab
// event — and the delivery lane, held inline in the engine, to one 64-byte
// line.
func TestHookLaneSize(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"hookLane", unsafe.Sizeof(hookLane{}), 64},
		{"hookEntry", unsafe.Sizeof(hookEntry{}), 32},
		{"deliveryEntry", unsafe.Sizeof(deliveryEntry{}), 40},
		{"deliveryLane", unsafe.Sizeof(deliveryLane{}), 64},
		{"key", unsafe.Sizeof(key{}), 24},
		{"event", unsafe.Sizeof(event{}), 64},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.size, c.want)
		}
	}
}

// countPreloader counts the batches it takes; shard workers may call it
// concurrently.
type countPreloader struct{ batches atomic.Int64 }

func (p *countPreloader) Preload(to []int32) uint64 {
	p.batches.Add(1)
	return uint64(to[len(to)-1])
}

// resendSink re-sends every delivery to its receiver one period later.
type resendSink struct{ e *Engine }

func (s *resendSink) Deliver(d Delivery) { s.e.ScheduleDelivery(1, d, s) }

// TestLookaheadAllocs guards the lookahead's steady state on an engine
// above lookaheadMinLane nodes with a preloader, on a hook lane and on a
// delivery lane: a self-re-arming hook, or a self-re-sending delivery,
// allocates nothing while the preloader takes batches — the batch travels
// in the engine's own array.
func TestLookaheadAllocs(t *testing.T) {
	const nodes = 2 * lookaheadMinLane
	t.Run("hook", func(t *testing.T) {
		e := NewEngine()
		p := &countPreloader{}
		e.SetPreloader(p, nodes)
		s := &countSink{e: e, period: 1}
		r := rng.New(5)
		for i := int32(0); i < nodes; i++ {
			e.ScheduleHookAt(r.Float64(), i, 0, s)
		}
		e.RunUntil(1.5) // sort once, settle
		before := p.batches.Load()
		allocs := testing.AllocsPerRun(4000, func() { e.Step() })
		if allocs != 0 {
			t.Errorf("self-re-arming hook with lookahead allocates %.3f per event, want 0", allocs)
		}
		if p.batches.Load() == before {
			t.Error("the preloader received no lookahead batch")
		}
	})
	t.Run("delivery", func(t *testing.T) {
		e := NewEngine()
		p := &countPreloader{}
		e.SetPreloader(p, nodes)
		s := &resendSink{e: e}
		r := rng.New(5)
		for i := int32(0); i < nodes; i++ {
			e.ScheduleDelivery(r.Float64(), Delivery{From: i, To: i}, s)
		}
		e.RunUntil(1.5) // open the lane, grow its ring, settle
		if e.ndl != 1 {
			t.Fatalf("%d delivery lanes, want the delay-1 lane", e.ndl)
		}
		before := p.batches.Load()
		allocs := testing.AllocsPerRun(4000, func() { e.Step() })
		if allocs != 0 {
			t.Errorf("self-re-sending delivery with lookahead allocates %.3f per event, want 0", allocs)
		}
		if p.batches.Load() == before {
			t.Error("the preloader received no lookahead batch")
		}
	})
}

// TestLookaheadGateBelongsToTheEngine checks that the node count given with
// the preloader is the one gate of both lane kinds: an engine of at most
// lookaheadMinLane nodes, or of none, hands its preloader no batch from a
// hook lane or a delivery lane, however full, while one more node makes
// both batch; installing again with too few nodes removes the preloader. On
// a sharded engine the gate is each shard's own node count, and hook events
// on the coordinator never reach the preloader.
func TestLookaheadGateBelongsToTheEngine(t *testing.T) {
	const lane = 4 * lookaheadMinLane // entries per lane, far above 2K
	run := func(nodes int, hooks bool, reinstall int) int64 {
		e := NewEngine()
		p := &countPreloader{}
		e.SetPreloader(p, nodes)
		if reinstall >= 0 {
			e.SetPreloader(p, reinstall)
		}
		r := rng.New(3)
		hs, ds := &countSink{e: e, period: 1}, &resendSink{e: e}
		for i := int32(0); i < lane; i++ {
			if hooks {
				e.ScheduleHookAt(r.Float64(), i, 0, hs)
			} else {
				e.ScheduleDelivery(r.Float64(), Delivery{From: i, To: i}, ds)
			}
		}
		e.RunUntil(3)
		return p.batches.Load()
	}
	for _, hooks := range []bool{true, false} {
		kind := map[bool]string{true: "hook", false: "delivery"}[hooks]
		for _, c := range []struct{ nodes, reinstall int }{
			{0, -1},
			{lookaheadMinLane, -1},
			{lookaheadMinLane + 1, lookaheadMinLane},
		} {
			if got := run(c.nodes, hooks, c.reinstall); got != 0 {
				t.Errorf("%s lane, nodes %d then %d: %d batches, want none", kind, c.nodes, c.reinstall, got)
			}
		}
		if got := run(lookaheadMinLane+1, hooks, -1); got == 0 {
			t.Errorf("%s lane, nodes %d: no batch", kind, lookaheadMinLane+1)
		}
	}

	// sharded runs 2 shards of perShard nodes each, with a self-re-arming
	// hook of coordLane entries on the coordinator and, if onShards, one of
	// perShard entries on every shard, and returns the preloader's batches.
	// Every coordinator event is a barrier, so its lane is the smaller one.
	const coordLane = 2 * lookaheadMinLane
	sharded := func(perShard int, onShards bool) int64 {
		shardOf := make([]int32, 2*perShard)
		for i := range shardOf {
			shardOf[i] = int32(i % 2)
		}
		se, err := NewShardedEngine(byTable(2, shardOf, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		p := &countPreloader{}
		se.SetPreloader(p)
		coord := &coordSink{se: se}
		r := rng.New(4)
		for i := 0; i < coordLane; i++ {
			se.ScheduleHookAt(r.Float64(), int32(i%len(shardOf)), 0, coord)
		}
		if onShards {
			for s := range se.engines {
				sink := &countSink{e: se.engines[s], period: 1}
				for i := s; i < len(shardOf); i += 2 {
					se.ShardScheduleHookAt(s, r.Float64(), int32(i), 0, sink)
				}
			}
		}
		se.RunUntil(1.5)
		if coord.n <= coordLane {
			t.Fatalf("the coordinator ran %d hook events, want more than %d", coord.n, coordLane)
		}
		return p.batches.Load()
	}
	if got := sharded(lookaheadMinLane+1, false); got != 0 {
		t.Errorf("coordinator hook lane of %d entries: %d batches, want none", coordLane, got)
	}
	if got := sharded(lookaheadMinLane, true); got != 0 {
		t.Errorf("shards of %d nodes each: %d batches, want none", lookaheadMinLane, got)
	}
	if got := sharded(lookaheadMinLane+1, true); got == 0 {
		t.Errorf("shards of %d nodes each: no batch", lookaheadMinLane+1)
	}
}

// coordSink is countSink for a sharded engine's coordinator.
type coordSink struct {
	se *ShardedEngine
	n  int
}

func (s *coordSink) Deliver(d Delivery) {
	s.n++
	s.se.ScheduleHookAt(s.se.Now()+1, d.To, d.Word, s)
}

func (s *coordSink) RunHook(to int32, word uint64) { s.Deliver(Delivery{To: to, Word: word}) }

// queueBit marks the words of events a lookWorld schedules through the
// queue on purpose (boxed deliveries).
const queueBit = 1 << 63

// lookWorld runs tick-shaped hook lanes of one sink on every shard — each
// node re-arms one period after it ticks, always for the first two periods,
// then with probability 0.9 up to its eighth — so each lane's population
// first holds and then shrinks across 2K. With spawn > 0, a tick of the
// first two periods also adds a second entry for its node with that
// probability, so the lane grows, and its ring is reallocated, while it is
// being popped. Ticks also schedule deliveries to the same sink through the
// queue, and hooks behind the lane's tail that fall back to it. The
// deliveries carry boxed payloads, which no delivery lane takes, so every
// batch the world sees comes from a hook lane (TestShardDeliveryLookahead-
// Contract covers delivery lanes). Everything is logged per shard, by the
// shard's own goroutine.
type lookWorld struct {
	engines []*Engine // per shard; one for the sequential engine
	shards  int
	n       int
	spawn   float64
	self    *lookSink // the sink every event targets
	hookAt  func(s int, t float64, to int32, word uint64)
	send    func(s int, delay float64, from, to int32, word uint64) // boxed, so queue-held
	logs    []lookLog
}

type lookLog struct {
	r        *rng.Source
	nextWord uint64
	fallback map[uint64]bool // words of hooks that went to the queue

	ringLen int      // the lane's ring length at the first pop
	pops    []int32  // To of every lane pop, in order
	after   []int    // the lane's population right after each lane pop
	queued  []uint64 // words of queue events, in order
	batches []lookBatch
}

// lookBatch is one Preload call: pop is the 1-based index of the lane pop
// it was made for.
type lookBatch struct {
	pop int
	to  [LookaheadBatch]int32
}

type lookSink struct{ w *lookWorld }

func (s *lookSink) Deliver(d Delivery) { s.w.deliver(d) }

func (s *lookSink) RunHook(to int32, word uint64) { s.Deliver(Delivery{To: to, Word: word}) }

// lookPreloader logs every batch for the lane pop that follows it.
type lookPreloader struct{ w *lookWorld }

func (p *lookPreloader) Preload(to []int32) uint64 {
	w := p.w
	l := &w.logs[w.shardOf(to[0])]
	b := lookBatch{pop: len(l.pops) + 1}
	copy(b.to[:], to)
	l.batches = append(l.batches, b)
	return uint64(to[0])
}

func (w *lookWorld) shardOf(node int32) int { return int(node) % w.shards }

func (w *lookWorld) lane(s int) *hookLane {
	e := w.engines[s]
	for i := range e.lanes {
		if e.lanes[i].hook == w.self {
			return &e.lanes[i]
		}
	}
	panic("no lane for the hook")
}

func (l *lookLog) word(gen uint64) uint64 {
	l.nextWord++
	return gen<<32 | l.nextWord
}

func (w *lookWorld) deliver(d Delivery) {
	s := w.shardOf(d.To)
	l := &w.logs[s]
	if d.Word&queueBit != 0 || l.fallback[d.Word] {
		l.queued = append(l.queued, d.Word)
		return
	}
	if len(l.pops) == 0 {
		l.ringLen = len(w.lane(s).buf)
	}
	l.pops = append(l.pops, d.To)
	l.after = append(l.after, w.lane(s).n)
	e := w.engines[s]
	now := e.Now()
	gen := d.Word >> 32 & 0xff
	if gen >= 8 || (gen >= 2 && l.r.Float64() >= 0.9) {
		return
	}
	w.hookAt(s, now+1, d.To, l.word(gen+1))
	if gen < 2 && l.r.Float64() < w.spawn {
		w.hookAt(s, now+1, d.To, l.word(gen+1)) // at the tail's time: appended
	}
	switch x := l.r.Float64(); {
	case x < 0.1:
		to := int32(l.r.Intn(w.n))
		delay := 1 + q(l.r.Float64()*2) // at least the sharded lookahead
		w.send(s, delay, d.To, to, queueBit|l.word(0))
	case x < 0.15:
		// Behind the tail just re-armed at now+1: the queue fallback.
		word := l.word(8)
		before := e.q.Len()
		w.hookAt(s, now+l.r.Float64()*0.5, d.To, word)
		if e.q.Len() == before {
			panic("a hook behind the lane's tail went to the lane")
		}
		l.fallback[word] = true
	}
}

// runLookWorld builds and runs the world with perShard nodes per shard on a
// plain engine (shards = 0) or a sharded one, with a preloader installed or
// not, and returns the logs and the accounting probes taken between run
// calls.
func runLookWorld(t *testing.T, shards, perShard int, spawn float64, seed uint64, preload bool) ([]lookLog, []string) {
	t.Helper()
	w := &lookWorld{shards: max(shards, 1), spawn: spawn}
	w.self = &lookSink{w: w}
	w.logs = make([]lookLog, w.shards)
	for s := range w.logs {
		w.logs[s] = lookLog{r: rng.New(rng.Derive(seed, uint64(s))), fallback: map[uint64]bool{}}
	}
	n := w.shards * perShard
	w.n = n
	var probe func() string
	var run func(h float64)
	if shards == 0 {
		e := NewEngine()
		if preload {
			e.SetPreloader(&lookPreloader{w: w}, n)
		}
		w.engines = []*Engine{e}
		w.hookAt = func(_ int, t float64, to int32, word uint64) { e.ScheduleHookAt(t, to, word, w.self) }
		w.send = func(_ int, delay float64, _, to int32, word uint64) {
			e.ScheduleDelivery(delay, Delivery{To: to, Word: word, Box: word}, w.self)
		}
		probe = func() string {
			next, ok := e.NextTime()
			return fmt.Sprintf("now %v next %v %v processed %d pending %d", e.Now(), next, ok, e.Processed(), e.Pending())
		}
		run = e.RunUntil
	} else {
		shardOf := make([]int32, n)
		for i := range shardOf {
			shardOf[i] = int32(w.shardOf(int32(i)))
		}
		se, err := NewShardedEngine(byTable(shards, shardOf, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		se.SetSink(w.self)
		if preload {
			se.SetPreloader(&lookPreloader{w: w})
		}
		w.engines = se.engines
		w.hookAt = func(s int, t float64, to int32, word uint64) { se.ShardScheduleHookAt(s, t, to, word, w.self) }
		w.send = func(_ int, delay float64, from, to int32, word uint64) {
			se.Send(delay, Delivery{From: from, To: to, Word: word, Box: word})
		}
		probe = func() string {
			return fmt.Sprintf("now %v processed %d pending %d", se.Now(), se.Processed(), se.pending())
		}
		run = se.RunUntil
	}
	setup := rng.New(seed)
	for i := 0; i < n; i++ {
		s := w.shardOf(int32(i))
		w.hookAt(s, setup.Float64(), int32(i), w.logs[s].word(0))
	}
	var probes []string
	for _, h := range []float64{0.5, 1.75, 3, 4.5, 100} {
		run(h)
		probes = append(probes, probe())
	}
	for s := range w.logs {
		if spawn > 0 && len(w.lane(s).buf) <= w.logs[s].ringLen {
			t.Fatalf("shard %d: the lane's ring never grew while popped", s)
		}
		if ndl := w.engines[s].ndl; ndl != 0 {
			t.Fatalf("shard %d: %d delivery lanes, want none", s, ndl)
		}
	}
	return w.logs, probes
}

// TestShardLookaheadContract checks the lookahead contract of hook lanes on
// the plain engine and on sharded ones of 2 and 4 shards: on an engine of
// more than lookaheadMinLane nodes, the preloader receives, every
// LookaheadBatch pops of a lane that leave at least 2K entries, exactly the
// To of the lane entries [head+K, head+2K) — checked against the pops that
// follow — and nothing otherwise; an engine of exactly lookaheadMinLane
// nodes hands out none. Queue events (deliveries, and hooks that fell back
// to the queue) neither count as pops nor trigger a batch. Engines of one
// more node and a few batches more hold and then shrink their lanes across
// 2K; a fourth lane grows past its ring's capacity while popped, so the
// batch period must survive the ring's reallocation. The run itself — pop
// order, Processed, Pending, NextTime — is the one without a preloader.
// Named …Shard… so CI's sharded race soak runs it.
func TestShardLookaheadContract(t *testing.T) {
	const k = LookaheadBatch
	for _, shards := range []int{0, 2, 4} {
		for _, c := range []struct {
			perShard int
			spawn    float64
		}{
			{lookaheadMinLane, 0},
			{lookaheadMinLane + 1, 0},
			{lookaheadMinLane + 3*k + 7, 0},
			{2*lookaheadMinLane - 3*k - 5, 0.01}, // just below a power of two
		} {
			perShard := c.perShard
			name := fmt.Sprintf("shards=%d/nodes=%d", shards, perShard)
			t.Run(name, func(t *testing.T) {
				got, gotProbes := runLookWorld(t, shards, perShard, c.spawn, 5, true)
				want, wantProbes := runLookWorld(t, shards, perShard, c.spawn, 5, false)
				if !reflect.DeepEqual(gotProbes, wantProbes) {
					t.Fatalf("probes differ:\ninstalled %q\nnone      %q", gotProbes, wantProbes)
				}
				for s := range got {
					g, h := &got[s], &want[s]
					if !reflect.DeepEqual(g.pops, h.pops) || !reflect.DeepEqual(g.after, h.after) || !reflect.DeepEqual(g.queued, h.queued) {
						t.Fatalf("shard %d: event order differs with the preloader installed", s)
					}
					if len(g.queued) == 0 || len(g.fallback) == 0 {
						t.Fatalf("shard %d: %d queue events, %d fallbacks; want both paths exercised", s, len(g.queued), len(g.fallback))
					}
					var due []int
					for p := k; p <= len(g.pops) && perShard > lookaheadMinLane; p += k {
						if g.after[p-1] >= 2*k {
							due = append(due, p)
						}
					}
					if perShard > lookaheadMinLane && len(due) == 0 {
						t.Fatalf("shard %d: the lane never held %d entries after a period's pop", s, 2*k)
					}
					if perShard == lookaheadMinLane && len(g.batches) != 0 {
						t.Fatalf("shard %d: an engine of %d nodes handed out %d batches", s, lookaheadMinLane, len(g.batches))
					}
					if len(g.batches) != len(due) {
						t.Fatalf("shard %d: %d batches, want %d", s, len(g.batches), len(due))
					}
					for i, b := range g.batches {
						if b.pop != due[i] {
							t.Fatalf("shard %d: batch %d came at pop %d, want %d", s, i, b.pop, due[i])
						}
						if next := g.pops[b.pop+k : b.pop+2*k]; !reflect.DeepEqual(b.to[:], next) {
							t.Fatalf("shard %d: batch at pop %d = %v, but the lane popped %v", s, b.pop, b.to, next)
						}
					}
					if len(h.batches) != 0 {
						t.Fatalf("shard %d: %d batches with no preloader installed", s, len(h.batches))
					}
				}
			})
		}
	}
}

// Word bits of a dlookWorld's deliveries: sideBit marks one-off side
// traffic, which is delivered but never re-sent; the shard that numbered the
// word sits above bit 40, so words are unique across shards.
const (
	sideBit    = 1 << 62
	shardShift = 40
)

// dlookWorld is lookWorld's delivery-lane twin. Every node starts with one
// message to itself at a random time, and each delivery re-sends it to its
// node one period (delay 1) later — always for the first two periods, then
// with probability 0.9 up to the eighth — so each engine's lane of delay 1
// holds about one entry per node and then shrinks; with spawn > 0, a
// delivery of the first two periods also sends a second message with that
// probability, so the lane grows, and its ring is reallocated, while it is
// being popped. Deliveries also send side traffic: boxed payloads (always
// queue-held), messages to random nodes with delay 1.5 (their own lane, or
// cross-shard deposits on a sharded engine) and absolute-time deliveries on
// the node's own engine, half a period to a period ahead, which fall back to
// the queue whenever they are behind the deposit lane's tail.
type dlookWorld struct {
	engines []*Engine
	shards  int
	n       int
	spawn   float64
	self    *dlookSink // the sink of every delivery
	send    func(delay float64, from, to int32, word uint64, box any)
	logs    []dlookLog
}

type dlookLog struct {
	r        *rng.Source
	nextWord uint64
	fallback int       // absolute-time deliveries that went to the queue
	queued   []uint64  // words of queue-held deliveries, in order
	lanes    []laneLog // per delivery lane, by lane index
	pending  *lookBatch
	ringLen  int    // the delay-1 lane's ring length at its first pop
	broken   string // the first contract breach seen, if any
}

type laneLog struct {
	pops    []int32 // To of every pop, in order
	after   []int   // the lane's population right after each pop
	batches []lookBatch
}

type dlookSink struct{ w *dlookWorld }

func (s *dlookSink) Deliver(d Delivery) { s.w.deliver(d) }

// dlookPreloader holds every batch for the delivery that follows it.
type dlookPreloader struct{ w *dlookWorld }

func (p *dlookPreloader) Preload(to []int32) uint64 {
	l := &p.w.logs[p.w.shardOf(to[0])]
	if l.pending != nil && l.broken == "" {
		l.broken = "two lookahead batches without a delivery in between"
	}
	l.pending = &lookBatch{}
	copy(l.pending.to[:], to)
	return uint64(to[0])
}

func (w *dlookWorld) shardOf(node int32) int { return int(node) % w.shards }

func (l *dlookLog) word(s int, gen uint64) uint64 {
	l.nextWord++
	return uint64(s)<<shardShift | gen<<32 | l.nextWord
}

// lanePopped returns the index of the delivery lane of e whose pop d just
// was, or -1 for a queue-held delivery: the slot before a lane's head holds
// its last pop, and words are unique.
func lanePopped(e *Engine, d Delivery) int {
	for i := range e.dlanes[:e.ndl] {
		l := &e.dlanes[i]
		if p := &l.buf[(l.head-1)&(len(l.buf)-1)]; p.word == d.Word && p.to == d.To {
			return i
		}
	}
	return -1
}

func (w *dlookWorld) deliver(d Delivery) {
	s := w.shardOf(d.To)
	l := &w.logs[s]
	e := w.engines[s]
	i := lanePopped(e, d)
	if i < 0 {
		if l.pending != nil && l.broken == "" {
			l.broken = "a queue-held delivery got a lookahead batch"
		}
		l.pending = nil
		l.queued = append(l.queued, d.Word)
	} else {
		for len(l.lanes) <= i {
			l.lanes = append(l.lanes, laneLog{})
		}
		ll := &l.lanes[i]
		if i == 0 && len(ll.pops) == 0 {
			l.ringLen = len(e.dlanes[0].buf)
		}
		ll.pops = append(ll.pops, d.To)
		ll.after = append(ll.after, e.dlanes[i].n)
		if b := l.pending; b != nil {
			b.pop = len(ll.pops)
			ll.batches = append(ll.batches, *b)
			l.pending = nil
		}
	}
	if d.Word&sideBit != 0 {
		return
	}
	now := e.Now()
	gen := d.Word >> 32 & 0xff
	if gen >= 8 || (gen >= 2 && l.r.Float64() >= 0.9) {
		return
	}
	w.send(1, d.To, d.To, l.word(s, gen+1), nil)
	if gen < 2 && l.r.Float64() < w.spawn {
		w.send(1, d.To, d.To, l.word(s, gen+1), nil)
	}
	switch x := l.r.Float64(); {
	case x < 0.05:
		w.send(1, d.To, d.To, sideBit|l.word(s, 0), "boxed")
	case x < 0.15:
		w.send(1.5, d.To, int32(l.r.Intn(w.n)), sideBit|l.word(s, 0), nil)
	case x < 0.2:
		before := e.q.Len()
		e.ScheduleDeliveryAt(now+1-l.r.Float64()*0.5, Delivery{From: d.To, To: d.To, Word: sideBit | l.word(s, 0)}, w.self)
		if e.q.Len() != before {
			l.fallback++
		}
	}
}

// runDeliveryLookWorld builds and runs the world with perShard nodes per
// shard on a plain engine (shards = 0) or a sharded one, with a preloader
// installed or not, and returns the logs and the accounting probes taken
// between run calls.
func runDeliveryLookWorld(t *testing.T, shards, perShard int, spawn float64, seed uint64, preload bool) ([]dlookLog, []string) {
	t.Helper()
	w := &dlookWorld{shards: max(shards, 1), spawn: spawn}
	w.self = &dlookSink{w: w}
	w.logs = make([]dlookLog, w.shards)
	for s := range w.logs {
		w.logs[s] = dlookLog{r: rng.New(rng.Derive(seed, uint64(s)))}
	}
	w.n = w.shards * perShard
	var probe func() string
	var run func(h float64)
	if shards == 0 {
		e := NewEngine()
		if preload {
			e.SetPreloader(&dlookPreloader{w: w}, w.n)
		}
		w.engines = []*Engine{e}
		w.send = func(delay float64, from, to int32, word uint64, box any) {
			e.ScheduleDelivery(delay, Delivery{From: from, To: to, Word: word, Box: box}, w.self)
		}
		probe = func() string {
			next, ok := e.NextTime()
			return fmt.Sprintf("now %v next %v %v processed %d pending %d", e.Now(), next, ok, e.Processed(), e.Pending())
		}
		run = e.RunUntil
	} else {
		shardOf := make([]int32, w.n)
		for i := range shardOf {
			shardOf[i] = int32(w.shardOf(int32(i)))
		}
		se, err := NewShardedEngine(byTable(shards, shardOf, 1))
		if err != nil {
			t.Fatal(err)
		}
		defer se.Close()
		se.SetSink(w.self)
		if preload {
			se.SetPreloader(&dlookPreloader{w: w})
		}
		w.engines = se.engines
		w.send = func(delay float64, from, to int32, word uint64, box any) {
			se.Send(delay, Delivery{From: from, To: to, Word: word, Box: box})
		}
		probe = func() string {
			return fmt.Sprintf("now %v processed %d pending %d", se.Now(), se.Processed(), se.pending())
		}
		run = se.RunUntil
	}
	setup := rng.New(seed)
	for i := int32(0); i < int32(w.n); i++ {
		s := w.shardOf(i)
		w.send(setup.Float64(), i, i, w.logs[s].word(s, 0), nil)
	}
	var probes []string
	for _, h := range []float64{0.5, 1.75, 3, 4.5, 100} {
		run(h)
		probes = append(probes, probe())
	}
	for s := range w.logs {
		if spawn > 0 && len(w.engines[s].dlanes[0].buf) <= w.logs[s].ringLen {
			t.Fatalf("shard %d: the delay-1 lane's ring never grew while popped", s)
		}
	}
	return w.logs, probes
}

// TestShardDeliveryLookaheadContract checks the lookahead contract of
// delivery lanes on the plain engine and on sharded ones of 2 and 4 shards:
// on an engine of more than lookaheadMinLane nodes, the preloader
// receives, every LookaheadBatch pops of one of its delivery lanes that
// leave at least 2K entries, exactly the To of the lane entries
// [head+K, head+2K) — checked against the lane's pops that follow — and
// nothing otherwise; an engine of exactly lookaheadMinLane nodes hands out
// none, however full its lanes. Queue-held deliveries (boxed payloads,
// absolute-time deliveries behind their lane's tail) neither count as pops
// nor get a batch. Engines of one more node and a few batches more hold and
// then shrink their lanes across 2K; a fourth lane grows past its ring's
// capacity while popped, so the batch period must survive the ring's
// reallocation. The run itself — every lane's pops, the queue-held order,
// Processed, Pending, NextTime — is the one without a preloader. Named
// …Shard… so CI's sharded race soak runs it.
func TestShardDeliveryLookaheadContract(t *testing.T) {
	const k = LookaheadBatch
	for _, shards := range []int{0, 2, 4} {
		for _, c := range []struct {
			perShard int
			spawn    float64
		}{
			{lookaheadMinLane, 0},
			{lookaheadMinLane + 1, 0},
			{lookaheadMinLane + 3*k + 7, 0},
			// Below a power of two by less than the first two periods' spawns
			// and more than the first's, so the ring grows after the lane's
			// first pop.
			{2*lookaheadMinLane - lookaheadMinLane/32, 0.01},
		} {
			perShard := c.perShard
			t.Run(fmt.Sprintf("shards=%d/nodes=%d", shards, perShard), func(t *testing.T) {
				got, gotProbes := runDeliveryLookWorld(t, shards, perShard, c.spawn, 7, true)
				want, wantProbes := runDeliveryLookWorld(t, shards, perShard, c.spawn, 7, false)
				if !reflect.DeepEqual(gotProbes, wantProbes) {
					t.Fatalf("probes differ:\ninstalled %q\nnone      %q", gotProbes, wantProbes)
				}
				batches := 0
				for s := range got {
					g, h := &got[s], &want[s]
					if g.broken != "" {
						t.Fatalf("shard %d: %s", s, g.broken)
					}
					if !reflect.DeepEqual(g.queued, h.queued) || len(g.lanes) != len(h.lanes) {
						t.Fatalf("shard %d: event order differs with the preloader installed", s)
					}
					if len(g.queued) == 0 || g.fallback == 0 || len(g.lanes) < 2 {
						t.Fatalf("shard %d: %d queue-held deliveries, %d fallbacks, %d lanes; want the queue, the fallback and two lanes exercised",
							s, len(g.queued), g.fallback, len(g.lanes))
					}
					for i := range g.lanes {
						gl, hl := &g.lanes[i], &h.lanes[i]
						if !reflect.DeepEqual(gl.pops, hl.pops) || !reflect.DeepEqual(gl.after, hl.after) {
							t.Fatalf("shard %d lane %d: pop order differs with the preloader installed", s, i)
						}
						if len(hl.batches) != 0 {
							t.Fatalf("shard %d lane %d: %d batches with no preloader installed", s, i, len(hl.batches))
						}
						var due []int
						for p := k; p <= len(gl.pops) && perShard > lookaheadMinLane; p += k {
							if gl.after[p-1] >= 2*k {
								due = append(due, p)
							}
						}
						if len(gl.batches) != len(due) {
							t.Fatalf("shard %d lane %d: %d batches, want %d", s, i, len(gl.batches), len(due))
						}
						for j, b := range gl.batches {
							if b.pop != due[j] {
								t.Fatalf("shard %d lane %d: batch %d came at pop %d, want %d", s, i, j, b.pop, due[j])
							}
							if next := gl.pops[b.pop+k : b.pop+2*k]; !reflect.DeepEqual(b.to[:], next) {
								t.Fatalf("shard %d lane %d: batch at pop %d = %v, but the lane popped %v", s, i, b.pop, b.to, next)
							}
						}
						batches += len(gl.batches)
					}
				}
				if perShard > lookaheadMinLane && batches == 0 {
					t.Fatal("no delivery lane got a batch")
				}
			})
		}
	}
}

// selfPreloadingHook re-arms one period after every event, like countSink,
// and is its own lane's Preloader: it counts the batches it takes and
// checks each against its lane, which must hold the batch's nodes at
// [head+K, head+2K).
type selfPreloadingHook struct {
	e       *Engine
	preload bool // whether it is a Preloader (see plainHook)
	batches int
	wrong   string
}

func (h *selfPreloadingHook) RunHook(to int32, word uint64) {
	h.e.ScheduleHookAt(h.e.Now()+1, to, word, h)
}

func (h *selfPreloadingHook) Preload(to []int32) uint64 {
	h.batches++
	l := h.e.lane(h)
	for k := range to {
		if want := l.buf[(l.head+LookaheadBatch+k)&(len(l.buf)-1)].to; to[k] != want && h.wrong == "" {
			h.wrong = fmt.Sprintf("batch %d names node %d at %d, the lane holds %d", h.batches, to[k], k, want)
		}
	}
	return uint64(to[0])
}

// plainHook is a selfPreloadingHook without the Preload method.
type plainHook struct{ h *selfPreloadingHook }

func (p plainHook) RunHook(to int32, word uint64) {
	p.h.e.ScheduleHookAt(p.h.e.Now()+1, to, word, p)
}

// TestLookaheadHookPreloadsItsLane checks that a hook lane whose hook is
// itself a Preloader takes its own lane's batches, the nodes the lane runs
// next, in place of the engine's preloader, which keeps every other lane's:
// on an engine of 2·lookaheadMinLane nodes with a self-preloading lane and a
// plain one, the two preloaders' batches add up to the engine preloader's
// batches when both lanes are plain, and the steady state allocates
// nothing. The engine's one gate still holds: at lookaheadMinLane nodes
// neither gets a batch.
func TestLookaheadHookPreloadsItsLane(t *testing.T) {
	run := func(nodes int, self bool) (engine, hook int64, allocs float64, wrong string) {
		e := NewEngine()
		p := &countPreloader{}
		e.SetPreloader(p, nodes)
		h := &selfPreloadingHook{e: e}
		var first Hook = plainHook{h}
		if self {
			first = h
		}
		other := &countSink{e: e, period: 1}
		r := rng.New(9)
		for i := int32(0); i < 2*lookaheadMinLane; i++ {
			e.ScheduleHookAt(r.Float64(), i, 0, first)
			e.ScheduleHookAt(r.Float64(), i, 0, other)
		}
		e.RunUntil(2.5)
		allocs = testing.AllocsPerRun(1000, func() { e.Step() })
		return p.batches.Load(), int64(h.batches), allocs, h.wrong
	}
	engine, hook, allocs, wrong := run(2*lookaheadMinLane, true)
	if wrong != "" {
		t.Fatal(wrong)
	}
	if engine == 0 || hook == 0 {
		t.Fatalf("engine preloader %d batches, self-preloading hook %d; want both", engine, hook)
	}
	if allocs != 0 {
		t.Errorf("a self-preloading hook lane allocates %.3f per event, want 0", allocs)
	}
	plain, none, _, _ := run(2*lookaheadMinLane, false)
	if none != 0 {
		t.Fatalf("a hook without Preload took %d batches", none)
	}
	if plain != engine+hook {
		t.Errorf("with both lanes plain the engine preloader took %d batches; split, %d + %d", plain, engine, hook)
	}
	if engine, hook, _, _ := run(lookaheadMinLane, true); engine != 0 || hook != 0 {
		t.Errorf("at %d nodes: engine preloader %d batches, hook %d; want none", lookaheadMinLane, engine, hook)
	}
}
