// Package live runs the token account protocol (Algorithm 4) in real time.
// It is the deployable counterpart of the simulator in package simnet and
// turns the framework into the "traffic shaping service" the paper proposes
// for decentralized applications.
//
// Env is the wall-clock implementation of runtime.Env: one run loop
// serializing timers and message deliveries for a whole set of nodes, so
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
	// NewTransport optionally runs the environment over an external
	// transport: it must return the transport endpoint of node i, whose
	// SendPayload(to, ...) reaches the endpoint returned for node `to`. Use
	// it to run the environment over TCP endpoints. Nil keeps every message
	// in process: a due delivery calls the delivery callback straight from
	// the run loop, as in simnet.Env, with no transport, goroutine or queue.
	NewTransport func(i int) (transport.Transport, error)
	// QueueSize bounds the delivery queue between an external transport's
	// goroutines and the run loop (default 4096). When the queue is full
	// further messages are dropped, which the protocol tolerates. An
	// in-process Env has no queue.
	QueueSize int
}

// Env is the wall-clock implementation of runtime.Env: timers fire at real
// deadlines (optionally compressed by TimeScale), messages are delivered on
// the Env's own scheduler (in process, the default) or travel over an
// external transport (TCP via NewTransport), and all callbacks — timers and
// deliveries alike — are serialized on the run loop goroutine inside Run, so
// hosts and protocol nodes need no locking. It is the deployable counterpart
// of simnet.Env and turns the same assembly into the paper's "traffic
// shaping service".
//
// Like every runtime.Env, it is single-goroutine: its methods are called
// during assembly, between runs, or from dispatched callbacks. Only an
// external transport's delivery queue, Stop and DroppedDeliveries are
// reached from other goroutines.
type Env struct {
	cfg   EnvConfig
	trans []transport.Transport // nil in process
	// sink receives the due events of SendDelayed: the Env itself in
	// process, its transportSink over an external transport.
	sink sim.DeliverySink

	engine  *sim.Engine
	deliver runtime.DeliverFunc
	start   time.Time // the run's wall-clock origin; zero until the first Run
	online  runtime.Availability
	closed  bool

	wake  chan struct{}    // wakes a sleeping run loop on Stop
	inbox chan envDelivery // nil in process, so the run loop never selects it
	// stopped is read once per turn of the run loop, so it is an atomic flag
	// and not a channel: the per-delivery path pays a load, not a select case.
	stopped atomic.Bool

	// droppedInbox counts deliveries discarded because the run loop could
	// not keep up with the transport.
	droppedInbox atomic.Int64
}

var _ runtime.Env = (*Env)(nil)

type envDelivery struct {
	from, to protocol.NodeID
	payload  protocol.Payload
}

// NewEnv builds a wall-clock environment with every node online and, with
// EnvConfig.NewTransport, one transport endpoint per node.
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
		engine: sim.NewEngine(),
		online: runtime.NewAvailability(cfg.N),
		wake:   make(chan struct{}, 1),
	}
	if cfg.NewTransport == nil {
		e.sink = e
		return e, nil
	}
	e.sink = (*transportSink)(e)
	e.trans = make([]transport.Transport, cfg.N)
	e.inbox = make(chan envDelivery, cfg.QueueSize)
	for i := 0; i < cfg.N; i++ {
		tr, err := cfg.NewTransport(i)
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

// DroppedDeliveries returns the number of messages discarded because the run
// loop's delivery queue was full; it stays 0 in process.
func (e *Env) DroppedDeliveries() int64 { return e.droppedInbox.Load() }

// enqueue hands a transport delivery to the run loop, dropping it if the
// loop cannot keep up.
func (e *Env) enqueue(d envDelivery) {
	select {
	case e.inbox <- d:
	default:
		e.droppedInbox.Add(1)
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

// Now implements runtime.Env: wall time since the start of the run,
// expressed in run-seconds. Before the run starts it returns 0.
func (e *Env) Now() float64 {
	if e.start.IsZero() {
		return 0
	}
	return time.Since(e.start).Seconds() / e.cfg.TimeScale
}

// clamp maps a run time in the past, or NaN, to the present.
func (e *Env) clamp(t float64) float64 {
	if now := e.Now(); t < now || t != t {
		return now
	}
	return t
}

// At implements runtime.Env: the callback goes to the engine at t, clamped
// to the wall clock.
func (e *Env) At(t float64, fn func()) {
	if fn == nil {
		panic("live: At with nil callback")
	}
	e.engine.At(e.clamp(t), fn)
}

// AtHook implements runtime.Env: the hook event goes to the hook's lane in
// the engine (see sim.Engine.ScheduleHookAt) with the clamping and tie-break
// order of At, and without a closure.
func (e *Env) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.engine.ScheduleHookAt(e.clamp(t), node, word, hook)
}

// Every implements runtime.Env. Repetitions re-arm on the nominal grid
// now+phase+k·interval rather than relative to the (slightly late) wall time
// of each firing, so a periodic event keeps the cadence the simulated
// environment would produce instead of accumulating scheduling drift. A
// re-arm is not clamped to the wall clock: in the past it is due at once and
// fires in nominal order, so a chain that fell behind still executes every
// repetition within the horizon — most importantly during Run's deadline
// drain, where a clamped re-arm would land past the horizon and silently drop
// the final on-grid metric sample, making the sample count load-dependent
// instead of runtime-neutral. (The engine clamps to the time of the event it
// popped last, which no re-arm precedes.)
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
			e.engine.At(next, tick)
		}
	}
	e.engine.At(next, tick)
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

// SendDelayed implements runtime.Env: the per-message delay sampled by a
// network model is realized on the run loop's scheduler, the payload held
// inline in the engine's event like a simulated delivery. In process, the
// event is due at Now()+delay (Now() for a zero or NaN delay) and hands the
// payload to the delivery callback (see Deliver). Over an external transport
// the due event, or SendDelayed itself for a zero or NaN delay, puts the
// payload into the sender's endpoint; it traverses the transport and
// re-surfaces on the run loop via the delivery queue, with the Kind, Word and
// Box it was sent with (word payloads cross TCP in the compact binary frame).
// Messages sent together with equal delays arrive together. Delays at or
// past the run horizon mean the message is never delivered, mirroring the
// simulated environment.
func (e *Env) SendDelayed(from, to protocol.NodeID, payload protocol.Payload, delay float64) {
	if int(from) < 0 || int(from) >= e.cfg.N {
		return
	}
	if !(delay > 0) { // also NaN
		if e.trans != nil {
			e.sendNow(from, to, payload)
			return
		}
		delay = 0
	}
	e.engine.ScheduleDeliveryAt(e.Now()+delay, sim.Delivery{
		From: int32(from),
		To:   int32(to),
		Kind: uint32(payload.Kind),
		Word: payload.Word,
		Box:  payload.Box,
	}, e.sink)
}

// Deliver implements sim.DeliverySink for an in-process Env: a due delivery
// calls the delivery callback stored by SetDeliver straight from the run
// loop, as in simnet.Env.
func (e *Env) Deliver(d sim.Delivery) {
	if e.deliver != nil {
		e.deliver(protocol.NodeID(d.From), protocol.NodeID(d.To),
			protocol.Payload{Kind: protocol.PayloadKind(d.Kind), Word: d.Word, Box: d.Box})
	}
}

// transportSink is the sim.DeliverySink of an Env over an external
// transport: once a message's delay has elapsed, the run loop hands its
// payload to the sender's endpoint.
type transportSink Env

func (s *transportSink) Deliver(d sim.Delivery) {
	(*Env)(s).sendNow(protocol.NodeID(d.From), protocol.NodeID(d.To),
		protocol.Payload{Kind: protocol.PayloadKind(d.Kind), Word: d.Word, Box: d.Box})
}

// sendNow pushes one payload into the sender's transport endpoint; SendDelayed
// has checked the sender.
func (e *Env) sendNow(from, to protocol.NodeID, payload protocol.Payload) {
	// Delivery failures are message loss, which the protocol tolerates.
	_ = e.trans[from].SendPayload(to, payload)
}

// SetDeliver implements runtime.Env.
func (e *Env) SetDeliver(fn runtime.DeliverFunc) { e.deliver = fn }

// Availability implements runtime.Env. Messages already queued for a node
// taken offline are dropped at delivery time by the host's online check.
func (e *Env) Availability() *runtime.Availability { return &e.online }

// step runs the earliest pending event if it is due — within the horizon
// and, unless the run is draining past its deadline, not after the current
// run time — and reports whether it ran one.
func (e *Env) step(until float64, draining bool) bool {
	t, ok := e.engine.NextTime()
	if !ok || t > until || !draining && t > e.Now() {
		return false
	}
	e.engine.Step()
	return true
}

// dispatch runs one transport delivery on the run loop.
func (e *Env) dispatch(d envDelivery) {
	if e.deliver != nil {
		e.deliver(d.from, d.to, d.payload)
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
	if e.closed {
		return transport.ErrClosed
	}
	if e.start.IsZero() {
		e.start = time.Now()
	}
	deadline := e.start.Add(e.wallDuration(until))
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
		// Then drain an external transport's pending deliveries.
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
			// land at their nominal times (no clamping, see Every), so a
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
		// Sleep until the next event, the deadline, a Stop, or a delivery —
		// whichever comes first.
		next := deadline
		if t, ok := e.engine.NextTime(); ok && t <= until {
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
	if e.closed {
		return nil
	}
	e.closed = true
	var first error
	for _, tr := range e.trans {
		if tr == nil {
			continue
		}
		if err := tr.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
