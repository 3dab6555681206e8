// Package live runs the token account protocol (Algorithm 4) in real time.
// It is the deployable counterpart of the simulator in package simnet and
// turns the framework into the "traffic shaping service" the paper proposes
// for decentralized applications.
//
// Env is the wall-clock implementation of runtime.Env: one run loop
// serializing timers and transport deliveries for a whole set of nodes, so
// the runtime-neutral runtime.Host — and with it every experiment scenario
// and metric probe — executes unchanged in real time. Its timed events live
// on a private sim.Engine, the scheduler of the simulated environments, so
// both worlds order events by the same (time, seq) rule. Daemon is the
// deployable unit built from the same two parts: a one-node Host over an Env
// whose transport is a managed TCP endpoint, plus membership and lifecycle.
package live

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
	"github.com/szte-dcs/tokenaccount/transport"
)

// EnvConfig parameterizes the wall-clock environment.
type EnvConfig struct {
	// N is the number of node slots (required, 1 ≤ N ≤ 65536). All nodes
	// start online.
	N int
	// Seed drives every randomness stream of the run (see Env.StreamSeed).
	Seed uint64
	// TimeScale compresses run time: one run-second lasts TimeScale
	// wall-clock seconds. The default 1 runs in real time; 0.001 compresses
	// the paper's Δ = 172.8 s proactive period to 172.8 ms, letting a
	// simulation-scale config finish a live run in seconds. Must be > 0.
	TimeScale float64
	// Latency is the delay of Send in run-seconds (scaled to wall time by
	// TimeScale): Send is SendDelayed with this delay. A Host never calls
	// Send — its Config.Network samples every delay — so Latency only
	// matters to code that sends straight through the environment.
	Latency float64
	// NewTransport optionally overrides the built-in in-process memory bus:
	// it must return the transport endpoint of node i, whose
	// SendPayload(to, ...) reaches the endpoint returned for node `to`. Use
	// it to run the environment over TCP endpoints. Nil selects the memory
	// bus.
	NewTransport func(i int) (transport.Transport, error)
	// QueueSize bounds the delivery queue between the transport goroutines
	// and the run loop (default 4096). When the queue is full further
	// messages are dropped, which the protocol tolerates.
	QueueSize int
}

// Env is the wall-clock implementation of runtime.Env: timers fire at real
// deadlines (optionally compressed by TimeScale), messages travel over a
// real transport (the in-process memory bus by default, TCP via
// NewTransport), and all callbacks — timers and deliveries alike — are
// serialized on the run loop goroutine inside Run, so hosts and protocol
// nodes need no locking. It is the deployable counterpart of simnet.Env and
// turns the same assembly into the paper's "traffic shaping service".
type Env struct {
	cfg   EnvConfig
	bus   *transport.MemoryBus
	trans []transport.Transport

	// mu guards everything below it but online, the engine included.
	// Callbacks never run under mu: the engine's sinks only record the
	// event Step pops in due, and the run loop runs it once mu is released,
	// so callbacks may re-enter the environment and any goroutine may
	// schedule. online is read and flipped without mu, during assembly and
	// by dispatched callbacks only (see Availability).
	mu      sync.Mutex
	engine  *sim.Engine
	due     dueEvent
	timers  envSink
	sends   envSink
	hooks   []*envSink
	deliver runtime.DeliverFunc
	started bool
	start   time.Time
	online  runtime.Availability
	closed  bool

	wake  chan struct{}
	inbox chan envDelivery
	// stopped is read once per turn of the run loop, so it is an atomic flag
	// and not a channel: the per-delivery path pays a load, not a select case.
	stopped atomic.Bool

	// droppedInbox counts deliveries discarded because the run loop could
	// not keep up with the transport.
	droppedInbox int64
}

var _ runtime.Env = (*Env)(nil)

type envDelivery struct {
	from, to protocol.NodeID
	payload  protocol.Payload
}

// envSink is what the engine hands an event to: as a sim.DeliverySink, the
// timer sink, whose events carry their callback in Delivery.Box, or the send
// sink, whose events carry a payload inline; as a sim.Hook, the sink of one
// runtime.Hook. Events therefore need no closure of their own, and every hook
// gets its own lane. The hook itself is not handed to the engine, because
// the engine runs under mu and the hook must run outside it.
type envSink struct {
	env  *Env
	send bool
	hook runtime.Hook
}

// dueEvent is the event the engine popped last, as its sink recorded it.
type dueEvent struct {
	sink *envSink
	d    sim.Delivery
}

// Deliver implements sim.DeliverySink. The engine calls it inside Step,
// under mu, so it only records the event for the run loop.
func (s *envSink) Deliver(d sim.Delivery) { s.env.due = dueEvent{sink: s, d: d} }

// RunHook implements sim.Hook for a hook's sink, and records the event like
// Deliver: the hook itself runs on the run loop, outside mu.
func (s *envSink) RunHook(to int32, word uint64) {
	s.env.due = dueEvent{sink: s, d: sim.Delivery{To: to, Word: word}}
}

// run executes a recorded event on the run loop, outside mu.
func (s *envSink) run(d sim.Delivery) {
	switch {
	case s.hook != nil:
		s.hook.RunHook(d.To, d.Word)
	case s.send:
		s.env.sendNow(protocol.NodeID(d.From), protocol.NodeID(d.To),
			protocol.Payload{Kind: protocol.PayloadKind(d.Kind), Word: d.Word, Box: d.Box})
	default:
		d.Box.(func())()
	}
}

// NewEnv builds a wall-clock environment with every node online and one
// transport endpoint per node.
func NewEnv(cfg EnvConfig) (*Env, error) {
	switch {
	case cfg.N < 1 || cfg.N > 65536:
		return nil, fmt.Errorf("live: EnvConfig.N = %d outside [1, 65536]", cfg.N)
	case cfg.TimeScale < 0 || math.IsInf(cfg.TimeScale, 1) || math.IsNaN(cfg.TimeScale):
		return nil, fmt.Errorf("live: TimeScale = %v, need a positive finite value", cfg.TimeScale)
	case cfg.Latency < 0 || math.IsInf(cfg.Latency, 1) || math.IsNaN(cfg.Latency):
		return nil, fmt.Errorf("live: Latency = %v, need ≥ 0 and finite", cfg.Latency)
	case cfg.QueueSize < 0:
		return nil, fmt.Errorf("live: QueueSize = %d, need ≥ 0", cfg.QueueSize)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 4096
	}
	if wall := cfg.Latency * cfg.TimeScale; wall > maxWallSeconds {
		return nil, fmt.Errorf("live: Latency = %g run-seconds spans %g wall-clock seconds at TimeScale %g, beyond the one-year scheduling limit",
			cfg.Latency, wall, cfg.TimeScale)
	}
	e := &Env{
		cfg:    cfg,
		trans:  make([]transport.Transport, cfg.N),
		engine: sim.NewEngine(),
		online: runtime.NewAvailability(cfg.N),
		wake:   make(chan struct{}, 1),
		inbox:  make(chan envDelivery, cfg.QueueSize),
	}
	e.timers = envSink{env: e}
	e.sends = envSink{env: e, send: true}
	if cfg.NewTransport == nil {
		e.bus = transport.NewMemoryBus()
	}
	for i := 0; i < cfg.N; i++ {
		var (
			tr  transport.Transport
			err error
		)
		if cfg.NewTransport != nil {
			tr, err = cfg.NewTransport(i)
		} else {
			tr, err = e.bus.Endpoint(protocol.NodeID(i))
		}
		if err != nil {
			_ = e.Close()
			return nil, fmt.Errorf("live: transport for node %d: %w", i, err)
		}
		if tr == nil {
			_ = e.Close()
			return nil, fmt.Errorf("live: NewTransport(%d) returned nil", i)
		}
		to := protocol.NodeID(i)
		tr.SetPayloadHandler(func(from protocol.NodeID, p protocol.Payload) {
			e.enqueue(envDelivery{from: from, to: to, payload: p})
		})
		e.trans[i] = tr
	}
	return e, nil
}

// Bus returns the built-in memory bus, or nil when a custom transport is in
// use. The bus itself adds no delay: EnvConfig.Latency is realized before a
// message reaches it, as for every transport. Only tests call Bus, to read
// delivery statistics and to inject faults; it stays exported as the one
// handle on the bus's fault options (see transport.BusOption) from outside
// this package.
func (e *Env) Bus() *transport.MemoryBus { return e.bus }

// DroppedDeliveries returns the number of messages discarded because the run
// loop's delivery queue was full.
func (e *Env) DroppedDeliveries() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.droppedInbox
}

// enqueue hands a transport delivery to the run loop, dropping it if the
// loop cannot keep up.
func (e *Env) enqueue(d envDelivery) {
	select {
	case e.inbox <- d:
	default:
		e.mu.Lock()
		e.droppedInbox++
		e.mu.Unlock()
	}
}

// maxWallSeconds bounds every wall-clock span the environment schedules to
// one year. Spans beyond it used to be silently clamped — a Run horizon that
// outran the cap returned early with no error; they are now rejected up
// front (NewEnv for the transport latency, Run for the horizon).
const maxWallSeconds = 365 * 24 * 3600.0

// wallSpan converts a span of run time to wall-clock seconds.
func (e *Env) wallSpan(seconds float64) float64 { return seconds * e.cfg.TimeScale }

// wallDuration converts a span of run time to wall time. Horizons and the
// latency are validated against maxWallSeconds; what a horizon-less run
// (Run(+Inf)) schedules is bounded only by its uptime, so the clamp here is a
// safety net against time.Duration overflow (≈ 292 years) and nothing else.
func (e *Env) wallDuration(seconds float64) time.Duration {
	wall := e.wallSpan(seconds)
	if wall > 100*maxWallSeconds {
		wall = 100 * maxWallSeconds
	}
	return time.Duration(wall * float64(time.Second))
}

// ensureStarted pins the run's wall-clock origin on first use.
func (e *Env) ensureStarted() {
	e.mu.Lock()
	if !e.started {
		e.started = true
		e.start = time.Now()
	}
	e.mu.Unlock()
}

// Now implements runtime.Env: wall time since the start of the run,
// expressed in run-seconds. Before the run starts it returns 0.
func (e *Env) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nowLocked()
}

// nowLocked is Now for a caller holding mu.
func (e *Env) nowLocked() float64 {
	if !e.started {
		return 0
	}
	return time.Since(e.start).Seconds() / e.cfg.TimeScale
}

// At implements runtime.Env. Unlike the simulated environment it may be
// called from any goroutine; the callback still runs on the run loop.
func (e *Env) At(t float64, fn func()) {
	if fn == nil {
		panic("live: At with nil callback")
	}
	e.schedule(t, true, sim.Delivery{Box: fn}, &e.timers)
}

// AtHook implements runtime.Env: the hook event goes to the hook's lane in
// the engine (see sim.Engine.ScheduleHookAt) with the clamping and tie-break
// order of At, and without a closure. Like At, it may be called from any
// goroutine.
func (e *Env) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.schedule(t, true, sim.Delivery{To: node, Word: word}, e.hookSink(hook))
}

// hookSink returns the sink of hook, registering it on first use.
func (e *Env) hookSink(hook runtime.Hook) *envSink {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.hooks {
		if s.hook == hook {
			return s
		}
	}
	s := &envSink{env: e, hook: hook}
	e.hooks = append(e.hooks, s)
	return s
}

// schedule puts an event for sink on the engine at run time t and wakes the
// run loop. With clamp set, a t in the past means the present (At, AtHook).
// Without it the event keeps its time even in the past, where it is due at
// once and fires in nominal order: Every re-arms that way, so a periodic
// chain that fell behind the wall clock still executes every repetition
// within the horizon — most importantly during Run's deadline drain, where a
// clamped re-arm would land past the horizon and silently drop the final
// on-grid metric sample, making the sample count load-dependent instead of
// runtime-neutral. (The engine clamps to the time of the event it popped
// last, which no re-arm precedes.)
func (e *Env) schedule(t float64, clamp bool, d sim.Delivery, sink *envSink) {
	e.mu.Lock()
	if clamp {
		if now := e.nowLocked(); t < now || t != t {
			t = now
		}
	}
	if sink.hook != nil {
		e.engine.ScheduleHookAt(t, d.To, d.Word, sink)
	} else {
		e.engine.ScheduleDeliveryAt(t, d, sink)
	}
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// Every implements runtime.Env. Repetitions re-arm on the nominal grid
// now+phase+k·interval rather than relative to the (slightly late) wall time
// of each firing, so a periodic event keeps the cadence the simulated
// environment would produce instead of accumulating scheduling drift.
func (e *Env) Every(phase, interval float64, fn func() bool) {
	if fn == nil {
		panic("live: Every with nil callback")
	}
	if interval <= 0 || interval != interval {
		panic(fmt.Sprintf("live: Every with non-positive interval %v", interval))
	}
	if phase < 0 || phase != phase {
		phase = 0
	}
	next := e.Now() + phase
	var tick func()
	tick = func() {
		if fn() {
			next += interval
			e.schedule(next, false, sim.Delivery{Box: tick}, &e.timers)
		}
	}
	e.schedule(next, false, sim.Delivery{Box: tick}, &e.timers)
}

// Rand returns randomness stream s: a SplitMix64 generator seeded with
// StreamSeed(s).
func (e *Env) Rand(stream uint64) protocol.Rand { return rng.New(e.StreamSeed(stream)) }

// StreamSeed implements runtime.Env: stream s is seeded with
// rng.Derive(seed, s), exactly as in the simulated environment, so a live
// run and a simulated run of the same seed draw from the same streams.
func (e *Env) StreamSeed(stream uint64) uint64 { return rng.Derive(e.cfg.Seed, stream) }

// Send is SendDelayed with the fixed EnvConfig.Latency as its delay. A Host
// never calls it: it sends through SendDelayed with the delay its network
// model sampled.
func (e *Env) Send(from, to protocol.NodeID, payload protocol.Payload) {
	e.SendDelayed(from, to, payload, e.cfg.Latency)
}

// sendNow pushes one payload into the sender's transport endpoint; SendDelayed
// has checked the sender.
func (e *Env) sendNow(from, to protocol.NodeID, payload protocol.Payload) {
	// Delivery failures are message loss, which the protocol tolerates.
	_ = e.trans[from].SendPayload(to, payload)
}

// SendDelayed implements runtime.Env: the per-message delay sampled by a
// network model is realized on the run loop's scheduler — the payload, held
// inline in the engine's event like a simulated delivery, reaches the
// sender's transport endpoint once the delay has elapsed in run time, then
// traverses the transport as usual and re-surfaces on the run loop via the
// delivery queue, with the Kind, Word and Box it was sent with (word
// payloads cross TCP in the compact binary frame). Messages sent together
// with equal delays arrive together. It may be called from any dispatched
// callback; delays at or past the run horizon mean the message is never
// delivered, mirroring the simulated environment.
func (e *Env) SendDelayed(from, to protocol.NodeID, payload protocol.Payload, delay float64) {
	if int(from) < 0 || int(from) >= len(e.trans) {
		return
	}
	if delay <= 0 || delay != delay {
		e.sendNow(from, to, payload)
		return
	}
	e.schedule(e.Now()+delay, false, sim.Delivery{
		From: int32(from),
		To:   int32(to),
		Kind: uint32(payload.Kind),
		Word: payload.Word,
		Box:  payload.Box,
	}, &e.sends)
}

// SetDeliver implements runtime.Env. It may be called from any goroutine;
// the run loop reads the callback under the same mutex, so a mid-run swap is
// race-free (each delivery sees either the old or the new callback).
func (e *Env) SetDeliver(fn runtime.DeliverFunc) {
	e.mu.Lock()
	e.deliver = fn
	e.mu.Unlock()
}

// Availability implements runtime.Env. The Host reads and flips the set on
// the run loop without taking the environment's mutex, so lifecycle flips
// during a run belong to dispatched callbacks, as the Env contract says.
// Messages already queued for a node taken offline are dropped at delivery
// time by the host's online check.
func (e *Env) Availability() *runtime.Availability { return &e.online }

// step runs the earliest pending event if it is due — within the horizon
// and, unless the run is draining past its deadline, not after the current
// run time — and reports whether it ran one. The engine pops the event under
// mu and its sink records it; it runs after mu is released.
func (e *Env) step(until float64, draining bool) bool {
	e.mu.Lock()
	t, ok := e.engine.NextTime()
	if !ok || t > until || !draining && t > e.nowLocked() {
		e.mu.Unlock()
		return false
	}
	e.engine.Step()
	ev := e.due
	e.due = dueEvent{}
	e.mu.Unlock()
	ev.sink.run(ev.d)
	return true
}

// dispatch runs one transport delivery on the run loop. The callback is read
// under mu (it may be swapped from another goroutine, see SetDeliver) but
// invoked outside it: delivery handlers re-enter the environment (Send, At,
// the inbox overflow counter), all of which take mu.
func (e *Env) dispatch(d envDelivery) {
	e.mu.Lock()
	deliver := e.deliver
	e.mu.Unlock()
	if deliver != nil {
		deliver(d.from, d.to, d.payload)
	}
}

// Stop makes Run return: a Run in progress returns nil once the callbacks
// already due have run, leaving everything else pending, and every later Run
// returns at once. It is how a process without a horizon (Run(+Inf), the
// tokennode daemon) leaves the run loop. Stop may be called from any
// goroutine, any number of times, before or during Run.
func (e *Env) Stop() {
	e.stopped.Store(true)
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// Run implements runtime.Env: it owns the run loop until the wall-clock
// deadline corresponding to the horizon has passed, executing scheduled
// callbacks at their deadlines and transport deliveries as they arrive.
// Events scheduled past the horizon stay pending, mirroring the simulated
// environment. A horizon of +Inf means no deadline (wallDuration's clamp puts
// it a century away): Run then returns only through Stop.
func (e *Env) Run(until float64) error {
	if wall := e.wallSpan(until); !math.IsInf(until, 1) && (wall > maxWallSeconds || wall != wall) {
		return fmt.Errorf("live: Run horizon %g run-seconds spans %g wall-clock seconds at TimeScale %g, beyond the one-year scheduling limit (lower the horizon or the time scale)",
			until, wall, e.cfg.TimeScale)
	}
	e.ensureStarted()
	e.mu.Lock()
	closed := e.closed
	deadline := e.start.Add(e.wallDuration(until))
	e.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		if e.stopped.Load() {
			return nil
		}
		// Execute everything due at the current run time.
		for e.step(until, false) {
		}
		// Then drain pending deliveries.
		select {
		case d := <-e.inbox:
			e.dispatch(d)
			continue
		default:
		}
		now := time.Now()
		if !now.Before(deadline) {
			// The wall deadline has passed, so every event still pending
			// within the horizon is due by definition — most importantly the
			// final metric sample scheduled at exactly the horizon, which
			// must not lose a race against the deadline check. Every re-arms
			// land at their nominal times (schedule, no clamping), so a
			// chain that fell behind replays its remaining in-horizon
			// repetitions right here; each re-arm advances by a positive
			// interval, so every chain leaves the horizon and the drain
			// terminates. At and AtHook callbacks — proactive ticks included —
			// cannot re-arm within the horizon: At clamps new events to the
			// current run time, already past it.
			for e.step(until, true) {
			}
			for {
				select {
				case d := <-e.inbox:
					e.dispatch(d)
					continue
				default:
				}
				break
			}
			return nil
		}
		// Sleep until the next event, the deadline, a cross-goroutine
		// schedule, or a delivery — whichever comes first.
		next := deadline
		e.mu.Lock()
		t, ok := e.engine.NextTime()
		e.mu.Unlock()
		if ok && t <= until {
			if w := e.start.Add(e.wallDuration(t)); w.Before(next) {
				next = w
			}
		}
		wait := next.Sub(now)
		if wait < 0 {
			wait = 0
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-e.wake:
			stopTimer(timer)
		case d := <-e.inbox:
			stopTimer(timer)
			e.dispatch(d)
		}
	}
}

// stopTimer stops a timer and drains its channel if it already fired.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// Close implements runtime.Env: it shuts down every transport endpoint.
// Pending timers and undelivered messages are discarded.
func (e *Env) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	var first error
	for _, tr := range e.trans {
		if tr == nil {
			continue
		}
		if err := tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	if e.bus != nil {
		if err := e.bus.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
