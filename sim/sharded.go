package sim

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// ShardedConfig parameterizes a sharded engine.
type ShardedConfig struct {
	// Shards is the number of worker shards (≥ 1). Each shard owns one
	// Engine and executes its nodes' events on its own goroutine.
	Shards int
	// Nodes is the number of nodes (≥ 1): node indices are [0, Nodes).
	Nodes int
	// ShardOf returns the shard that owns a node, in [0, Shards) (required).
	// The engine calls it on every Send, from every shard worker, so it must
	// be a pure function of the node, safe for concurrent use — and cheap:
	// netmodel.PlanShards computes it from the node index instead of
	// storing a per-node table, whose entry for a random destination is a
	// cache miss at scale.
	ShardOf func(node int32) int32
	// Lookahead is the minimum delay of any cross-shard delivery (> 0).
	// Shards execute independently for windows of this length; a smaller
	// cross-shard delay would violate causality, so Send panics on one.
	Lookahead float64
}

// outMsg is one cross-shard delivery parked in an outbox between windows:
// the absolute delivery time plus the delivery itself.
type outMsg struct {
	time float64
	d    Delivery
}

// outbox is one (src, dst) buffer of cross-shard deliveries, padded to a
// 64-byte cache line: its slice header is written by shard src's worker on
// every cross-shard append and by shard dst's worker when it drains, so two
// headers sharing a line would make the workers appending to different
// outboxes invalidate each other's line (false sharing). An array of S²
// outboxes is 64-byte aligned: Go's allocator rounds 64·S² bytes up to a
// size class that is itself a multiple of 64 and places objects of that
// class at multiples of their size within a page-aligned span.
type outbox struct {
	msgs []outMsg
	_    [64 - unsafe.Sizeof([]outMsg{})]byte
}

// ShardedEngine executes one simulation run across several shards under the
// conservative time-window protocol: every shard owns a private Engine with
// the events of its nodes, all shards execute in parallel up to a common
// window end no further than lookahead ahead of the last barrier, cross-shard
// deliveries travel through per-(src, dst) outboxes drained at the barrier,
// and a coordinator queue holds the run-global events (metric sampling,
// update injection, churn transitions), which execute only at barriers.
//
// Correctness rests on the lookahead bound: a cross-shard message sent at
// time t inside a window starting at w arrives at t+d ≥ w+lookahead, which
// is at or after the window end, so depositing it at the next barrier can
// never deliver it late. Intra-shard deliveries are unconstrained.
//
// Determinism: for a fixed (event content, shard count) the run is
// bit-for-bit reproducible. Shard execution is sequential within a shard;
// each destination shard deposits its outboxes in src order, drawing fresh
// sequence numbers from its own engine; coordinator events run
// single-threaded at barriers, after the deposits and before any shard event
// sharing their timestamp. The schedule does not depend on goroutine timing
// — only on the event content itself.
//
// Barrier protocol. The outboxes are double-buffered: windows append to one
// S×S set while the other is drained, and every barrier swaps the two. The
// destination workers drain in parallel, each its own column of the set just
// filled, at the start of their next task: fused into the next window when
// no coordinator event is due at the barrier, or as a drain-only task (a
// window ending where it starts) before the coordinator events when one is,
// so those still see every deposit. A source worker appending to the other
// set meanwhile never touches the boxes being drained. The drain runs
// sequentially on the coordinator instead before the workers have started,
// with one shard, and at the horizon, where the inclusive sweep needs the
// deposits. Because every engine draws its own sequence numbers and each
// deposits in src order, every seq, and so every tie-break, is the one a
// sequential (dst, src) drain on the coordinator assigns.
//
// All scheduling methods (At, Every, Send, ScheduleHookAt,
// ShardScheduleHookAt) must be called either during assembly or from within
// executing events; RunUntil itself must be driven from a single goroutine.
type ShardedEngine struct {
	engines   []*Engine
	coord     *Engine
	shardOf   func(node int32) int32
	nodes     []int // nodes owned per shard, for SetPreloader
	lookahead float64
	sink      DeliverySink

	// outboxes holds two flattened S×S matrices of cross-shard buffers,
	// each indexed src*S+dst; Send appends to outboxes[fill], the drain reads
	// outboxes[fill^1]. Each buffer has exactly one writer (shard src's
	// goroutine during windows, the coordinator at barriers) and one reader
	// (shard dst's drain); the swap at a barrier orders the two, so plain
	// slices suffice and the steady state allocates nothing once grown.
	outboxes [2][]outbox
	fill     int

	work    []chan float64
	wg      sync.WaitGroup // one window's barrier
	workers sync.WaitGroup // the worker goroutines themselves; Close waits on it
	started bool
	closed  bool
}

// NewShardedEngine validates the configuration and builds the engine. It
// calls ShardOf once for every node, to check its range and to count the
// nodes each shard owns.
func NewShardedEngine(cfg ShardedConfig) (*ShardedEngine, error) {
	switch {
	case cfg.Shards < 1:
		return nil, fmt.Errorf("sim: ShardedConfig.Shards = %d, need ≥ 1", cfg.Shards)
	case cfg.Nodes < 1 || cfg.Nodes > math.MaxInt32:
		return nil, fmt.Errorf("sim: ShardedConfig.Nodes = %d, need in [1, %d]", cfg.Nodes, math.MaxInt32)
	case cfg.ShardOf == nil:
		return nil, fmt.Errorf("sim: ShardedConfig.ShardOf is nil")
	case cfg.Lookahead <= 0 || math.IsNaN(cfg.Lookahead) || math.IsInf(cfg.Lookahead, 0):
		return nil, fmt.Errorf("sim: ShardedConfig.Lookahead = %g, need > 0 and finite", cfg.Lookahead)
	}
	nodes := make([]int, cfg.Shards)
	for i := int32(0); int(i) < cfg.Nodes; i++ {
		s := cfg.ShardOf(i)
		if s < 0 || int(s) >= cfg.Shards {
			return nil, fmt.Errorf("sim: ShardOf(%d) = %d outside [0, %d)", i, s, cfg.Shards)
		}
		nodes[s]++
	}
	se := &ShardedEngine{
		engines:   make([]*Engine, cfg.Shards),
		coord:     NewEngine(),
		shardOf:   cfg.ShardOf,
		nodes:     nodes,
		lookahead: cfg.Lookahead,
	}
	for i := range se.outboxes {
		se.outboxes[i] = make([]outbox, cfg.Shards*cfg.Shards)
	}
	for s := range se.engines {
		se.engines[s] = NewEngine()
	}
	return se, nil
}

// SetPreloader installs p on every shard engine with the number of nodes
// the shard owns (see Engine.SetPreloader), and never on the coordinator:
// its events run at barriers, whole windows of shard events apart, so what a
// batch loaded for them would be evicted before they ran. It must be called
// during assembly.
func (se *ShardedEngine) SetPreloader(p Preloader) {
	for s, e := range se.engines {
		e.SetPreloader(p, se.nodes[s])
	}
}

// SetSink installs the delivery sink every delivery event is handed to. It
// must be set before the first Send.
func (se *ShardedEngine) SetSink(sink DeliverySink) { se.sink = sink }

// NumShards returns the number of shards.
func (se *ShardedEngine) NumShards() int { return len(se.engines) }

// Now returns the coordinator's virtual time: the time of the last barrier.
// During a window, shard-local time (ShardNow) runs ahead of it.
func (se *ShardedEngine) Now() float64 { return se.coord.Now() }

// At schedules a run-global event at the given absolute time on the
// coordinator queue. Coordinator events execute single-threaded at window
// barriers, with every shard synchronized to their timestamp, so they may
// touch state of any shard.
func (se *ShardedEngine) At(t float64, fn func()) { se.coord.At(t, fn) }

// Every schedules a repeating run-global event on the coordinator queue
// (see Engine.Every).
func (se *ShardedEngine) Every(phase, interval float64, fn func() bool) {
	se.coord.Every(phase, interval, fn)
}

// ShardNow returns shard s's local virtual time: inside a window it runs up
// to lookahead ahead of the last barrier.
func (se *ShardedEngine) ShardNow(s int) float64 { return se.engines[s].Now() }

// ScheduleHookAt schedules a hook event on the coordinator at absolute time
// t (see Engine.ScheduleHookAt): like At, it executes single-threaded at a
// window barrier, but without a closure, and in the hook's lane when it
// arrives in order.
func (se *ShardedEngine) ScheduleHookAt(t float64, to int32, word uint64, hook Hook) {
	se.coord.ScheduleHookAt(t, to, word, hook)
}

// ShardScheduleHookAt schedules a hook event on shard s at absolute
// shard-local time t (see Engine.ScheduleHookAt). The hook runs on the
// shard's goroutine and must only touch state owned by that shard.
func (se *ShardedEngine) ShardScheduleHookAt(s int, t float64, to int32, word uint64, hook Hook) {
	se.engines[s].ScheduleHookAt(t, to, word, hook)
}

// Send schedules the delivery d after the given delay, routed by the shards
// of its endpoints (ShardedConfig.ShardOf): an intra-shard delivery goes
// straight to the owning shard's engine (Engine.ScheduleDelivery, so a
// fixed delay rides a delivery lane), a cross-shard one is parked in the
// (src, dst) outbox and deposited into the destination engine at the next
// barrier. The delay is measured from the source shard's local time — the
// shard's own goroutine during a window, the common barrier time in
// coordinator context — and a negative or NaN delay counts as zero.
// Cross-shard delays below the lookahead violate the conservative contract
// and panic.
func (se *ShardedEngine) Send(delay float64, d Delivery) {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	src, dst := se.shardOf(d.From), se.shardOf(d.To)
	if src == dst {
		se.engines[src].ScheduleDelivery(delay, d, se.sink)
		return
	}
	if delay < se.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delivery %d→%d with delay %g below the lookahead %g",
			d.From, d.To, delay, se.lookahead))
	}
	ob := &se.outboxes[se.fill][int(src)*len(se.engines)+int(dst)].msgs
	*ob = append(*ob, outMsg{time: se.engines[src].Now() + delay, d: d})
}

// Processed returns the total number of executed events across all shards
// and the coordinator. It must not be called while a window is executing.
func (se *ShardedEngine) Processed() uint64 {
	total := se.coord.Processed()
	for _, e := range se.engines {
		total += e.Processed()
	}
	return total
}

// pending returns the number of scheduled, not-yet-executed events,
// including deliveries parked in either set of outboxes.
func (se *ShardedEngine) pending() int {
	n := se.coord.Pending()
	for _, e := range se.engines {
		n += e.Pending()
	}
	for _, set := range se.outboxes {
		for i := range set {
			n += len(set[i].msgs)
		}
	}
	return n
}

// RunUntil advances the run to the horizon under the window protocol:
// repeatedly drain the outboxes, execute due coordinator events, pick the
// next window end (bounded by the lookahead, the next coordinator event and
// the horizon), and execute all shards in parallel up to — exclusively — that
// end. Events at exactly the horizon execute in a final sequential sweep, so
// repeated calls with increasing horizons behave like one long run, matching
// Engine.RunUntil. Where each drain runs is the barrier protocol of the type
// comment.
func (se *ShardedEngine) RunUntil(horizon float64) {
	if se.closed {
		panic("sim: RunUntil on a closed ShardedEngine")
	}
	for {
		t := se.coord.Now()
		if se.started && t < horizon {
			// The destination workers drain the set just filled at the start
			// of their next task. A coordinator event due now must see the
			// deposits, so it gets a drain-only task of its own: a window
			// ending at t runs no event.
			se.fill ^= 1
			if next, ok := se.coord.NextTime(); ok && next <= t {
				se.runWindow(t)
			}
		} else {
			se.drainOutboxes()
		}
		se.coord.RunUntil(t)
		if t >= horizon {
			break
		}
		wEnd := t + se.lookahead
		if wEnd > horizon {
			wEnd = horizon
		}
		if next, ok := se.coord.NextTime(); ok && next < wEnd {
			wEnd = next
		}
		se.runWindow(wEnd)
		// No coordinator event lies in (t, wEnd), so this only advances the
		// coordinator clock to the barrier.
		se.coord.RunBefore(wEnd)
	}
	// All shards stand at the horizon with every due cross-shard delivery
	// deposited; the inclusive sweep runs the events at exactly the horizon.
	// Cross-shard sends they issue come due at horizon+lookahead at the
	// earliest and stay parked for the next call.
	for _, e := range se.engines {
		e.RunUntil(horizon)
	}
	se.drainOutboxes()
}

// runWindow executes every shard up to, exclusively, the window end; on the
// workers, each shard first deposits its column of the drained outbox set.
func (se *ShardedEngine) runWindow(wEnd float64) {
	if len(se.engines) == 1 {
		se.engines[0].RunBefore(wEnd)
		return
	}
	if !se.started {
		se.start()
	}
	se.wg.Add(len(se.work))
	for _, ch := range se.work {
		ch <- wEnd
	}
	se.wg.Wait()
}

// start spawns the persistent shard workers. Each worker owns its shard's
// engine (and, transitively, the state of the nodes mapped to it) for the
// duration of every window; the channel send and WaitGroup establish the
// barrier ordering that lets coordinator events touch any shard in between.
func (se *ShardedEngine) start() {
	se.started = true
	se.work = make([]chan float64, len(se.engines))
	for s := range se.engines {
		ch := make(chan float64)
		se.work[s] = ch
		se.workers.Add(1)
		go func(s int, e *Engine) {
			defer se.workers.Done()
			for wEnd := range ch {
				se.drainInto(s)
				e.RunBefore(wEnd)
				se.wg.Done()
			}
		}(s, se.engines[s])
	}
}

// drainOutboxes swaps the outbox sets and deposits every parked cross-shard
// delivery on the calling goroutine, destination by destination.
func (se *ShardedEngine) drainOutboxes() {
	se.fill ^= 1
	for dst := range se.engines {
		se.drainInto(dst)
	}
}

// drainInto deposits the deliveries parked for shard dst in the drained set
// (the one Send is not filling) into dst's engine. Sources are taken in src
// order and entries within one outbox are in source execution order, and dst
// draws the sequence numbers from its own engine, so they — and with them
// all tie-breaks — are deterministic whichever goroutine drains. Each
// source's entries arrive in time order, so they ride dst's deposit lane
// (see Engine.ScheduleDeliveryAt) as long as they are not earlier than its
// tail; with two shards and one cross-shard delay that is every deposit.
func (se *ShardedEngine) drainInto(dst int) {
	s := len(se.engines)
	e := se.engines[dst]
	set := se.outboxes[se.fill^1]
	for src := 0; src < s; src++ {
		ob := &set[src*s+dst].msgs
		for i := range *ob {
			m := &(*ob)[i]
			e.ScheduleDeliveryAt(m.time, m.d, se.sink)
			m.d.Box = nil // release boxed payloads while the slot idles
		}
		*ob = (*ob)[:0]
	}
}

// Close terminates the shard workers and returns once they have exited, so
// nothing keeps the engine — and whatever its events reference — reachable
// afterwards. It must not be called while RunUntil is executing; the engine
// cannot run afterwards.
func (se *ShardedEngine) Close() {
	if se.closed {
		return
	}
	se.closed = true
	for _, ch := range se.work {
		close(ch)
	}
	se.workers.Wait()
}
