// Package live runs the token account protocol (Algorithm 4) in real time.
// It is the deployable counterpart of the simulator in package simnet and
// turns the framework into the "traffic shaping service" the paper proposes
// for decentralized applications.
//
// Env is the wall-clock implementation of runtime.Env: the simulator's own
// simnet.Env paced by a clock, with one run loop serializing timers and
// message deliveries for a whole set of nodes, so the runtime-neutral
// runtime.Host — and with it every experiment scenario and metric probe —
// executes unchanged in real time, and both worlds order events by the same
// (time, seq) rule. Daemon is the deployable unit built from the same two
// parts: a one-node Host over an Env whose transport is a managed TCP
// endpoint, plus membership and lifecycle. It is the package's one socket
// assembly.
package live

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
	"github.com/szte-dcs/tokenaccount/simnet"
	"github.com/szte-dcs/tokenaccount/transport"
)

// EnvConfig parameterizes the wall-clock environment.
type EnvConfig struct {
	// N is the number of node slots (required, ≥ 1). All nodes start
	// online. In process a slot costs what a simnet.Env slot costs; with
	// NewTransport each slot opens its own endpoint.
	N int
	// Seed drives every randomness stream of the run (see Env.StreamSeed).
	Seed uint64
	// TimeScale compresses run time: one run-second lasts TimeScale
	// wall-clock seconds. The default 1 runs in real time; 0.001 compresses
	// the paper's Δ = 172.8 s proactive period to 172.8 ms, letting a
	// simulation-scale config finish a live run in seconds. Must be ≥ 0 and
	// finite; 0 means 1.
	TimeScale float64
	// Latency is the delay of Send in run-seconds (scaled to wall time by
	// TimeScale): Send is SendDelayed with this delay. A Host never calls
	// Send — its Config.Network samples every delay — so Latency only
	// matters to code that sends straight through the environment.
	Latency float64
	// NewTransport optionally runs the environment over an external
	// transport: it must return the transport endpoint of node i, whose
	// SendPayload(to, ...) reaches the endpoint returned for node `to`. The
	// Daemon passes its one TCP endpoint; a mesh of N endpoints is for tests
	// and benchmarks of the socket path. Nil keeps every message in process:
	// a due delivery calls the delivery callback straight from the run loop,
	// as in simnet.Env, with no transport, goroutine or queue.
	NewTransport func(i int) (transport.Transport, error)
	// QueueSize bounds the delivery queue between an external transport's
	// goroutines and the run loop (default 4096). When the queue is full
	// further messages are dropped, which the protocol tolerates. An
	// in-process Env has no queue.
	QueueSize int
}

// Env is the wall-clock implementation of runtime.Env: a simnet.Env — the
// engine, randomness streams, online set and delivery callback of the
// simulator — whose run loop steps the engine once the clock reaches each
// event's time (optionally compressed by TimeScale). Messages are delivered
// on that engine (in process, the default) or travel over an external
// transport (the Daemon's TCP endpoint, via NewTransport), and all
// callbacks — timers and deliveries alike — are serialized on the run loop
// goroutine inside Run, so hosts and protocol nodes need no locking. It is
// the deployable counterpart of simnet.Env and turns the same assembly into
// the paper's "traffic shaping service".
//
// Like every runtime.Env, it is single-goroutine: its methods are called
// during assembly, between runs, or from dispatched callbacks. Only an
// external transport's delivery queue, Stop and DroppedDeliveries are
// reached from other goroutines.
type Env struct {
	cfg   EnvConfig
	core  *simnet.Env
	clock clock
	trans []transport.Transport // nil in process
	// sink receives the due events of SendDelayed: the core in process, its
	// transportSink over an external transport.
	sink   sim.DeliverySink
	closed bool

	wake  chan struct{}     // wakes a sleeping run loop on Stop
	inbox chan sim.Delivery // nil in process, so the run loop never selects it
	// stopped is read once per turn of the run loop, so it is an atomic flag
	// and not a channel: the per-delivery path pays a load, not a select case.
	stopped atomic.Bool

	// droppedInbox counts deliveries discarded because the run loop could
	// not keep up with the transport.
	droppedInbox atomic.Int64
}

var _ runtime.Env = (*Env)(nil)

// NewEnv builds a wall-clock environment with every node online and, with
// EnvConfig.NewTransport, one transport endpoint per node.
func NewEnv(cfg EnvConfig) (*Env, error) {
	switch {
	case cfg.N < 1:
		return nil, fmt.Errorf("live: EnvConfig.N = %d, need ≥ 1", cfg.N)
	case cfg.TimeScale < 0 || math.IsInf(cfg.TimeScale, 1) || math.IsNaN(cfg.TimeScale):
		return nil, fmt.Errorf("live: TimeScale = %v, need ≥ 0 and finite (0 means 1)", cfg.TimeScale)
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
	core, _ := simnet.NewEnv(simnet.EnvConfig{N: cfg.N, Seed: cfg.Seed}) // N is valid
	e := &Env{
		cfg:   cfg,
		core:  core,
		clock: newWallClock(cfg.TimeScale),
		wake:  make(chan struct{}, 1),
	}
	if cfg.NewTransport == nil {
		e.sink = core
		return e, nil
	}
	e.sink = (*transportSink)(e)
	e.trans = make([]transport.Transport, cfg.N)
	e.inbox = make(chan sim.Delivery, cfg.QueueSize)
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
			e.enqueue(delivery(from, to, p))
		})
		e.trans[i] = tr
	}
	return e, nil
}

// delivery packs a message into the engine's delivery event.
func delivery(from, to protocol.NodeID, p protocol.Payload) sim.Delivery {
	return sim.Delivery{From: int32(from), To: int32(to), Kind: uint32(p.Kind), Word: p.Word, Box: p.Box}
}

// DroppedDeliveries returns the number of messages discarded because the run
// loop's delivery queue was full; it stays 0 in process.
func (e *Env) DroppedDeliveries() int64 { return e.droppedInbox.Load() }

// enqueue hands a transport delivery to the run loop, dropping it if the
// loop cannot keep up.
func (e *Env) enqueue(d sim.Delivery) {
	select {
	case e.inbox <- d:
	default:
		e.droppedInbox.Add(1)
	}
}

// Now implements runtime.Env: the clock's run time, wall time since the
// start of the run expressed in run-seconds. Before the run starts it
// returns 0.
func (e *Env) Now() float64 { return e.clock.Now() }

// clamp maps a run time in the past, or NaN, to the present.
func (e *Env) clamp(t float64) float64 {
	if now := e.Now(); t < now || t != t {
		return now
	}
	return t
}

// At implements runtime.Env: the callback goes to the engine at t, clamped
// to the clock.
func (e *Env) At(t float64, fn func()) { e.core.At(e.clamp(t), fn) }

// AtHook implements runtime.Env: the hook event goes to the hook's lane in
// the engine (see sim.Engine.ScheduleHookAt) with the clamping and tie-break
// order of At, and without a closure.
func (e *Env) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.core.AtHook(e.clamp(t), hook, node, word)
}

// Every implements runtime.Env with the engine's Every, its first repetition
// due at Now()+phase: the engine's own time can trail the clock, since a
// transport delivery runs without stepping the engine. A repetition re-arms
// one interval after the nominal time of the last, not after the (slightly
// late) clock reading, so a periodic event keeps the simulated cadence. A
// re-arm in the past is due at once, so a chain that fell behind still runs
// every repetition within the horizon — in Run's deadline drain too, where
// a re-arm clamped to the clock would land past the horizon and drop the
// final on-grid metric sample.
func (e *Env) Every(phase, interval float64, fn func() bool) {
	e.core.Every(e.Now()-e.core.Now()+phase, interval, fn)
}

// Rand returns randomness stream s: a SplitMix64 generator seeded with
// StreamSeed(s).
func (e *Env) Rand(stream uint64) protocol.Rand { return e.core.Rand(stream) }

// StreamSeed implements runtime.Env: stream s is seeded exactly as in the
// simulated environment, so a live run and a simulated run of the same seed
// draw from the same streams.
func (e *Env) StreamSeed(stream uint64) uint64 { return e.core.StreamSeed(stream) }

// Send is SendDelayed with the fixed EnvConfig.Latency as its delay. A Host
// never calls it: it sends through SendDelayed with the delay its network
// model sampled.
func (e *Env) Send(from, to protocol.NodeID, payload protocol.Payload) {
	e.SendDelayed(from, to, payload, e.cfg.Latency)
}

// SendDelayed implements runtime.Env: the per-message delay sampled by a
// network model is realized on the run loop's engine, the payload held
// inline in the engine's event like a simulated delivery. In process, the
// event is due at Now()+delay (Now() for a zero or NaN delay) and hands the
// payload to the delivery callback, as in simnet.Env. Over an external
// transport the due event, or SendDelayed itself for a zero or NaN delay,
// puts the payload into the sender's endpoint; it traverses the transport
// and re-surfaces on the run loop via the delivery queue, with the Kind,
// Word and Box it was sent with (word payloads cross TCP in the compact
// binary frame). Messages sent together with equal delays arrive together.
// Delays at or past the run horizon mean the message is never delivered,
// mirroring the simulated environment.
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
	e.core.Engine().ScheduleDeliveryAt(e.Now()+delay, delivery(from, to, payload), e.sink)
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
func (e *Env) SetDeliver(fn runtime.DeliverFunc) { e.core.SetDeliver(fn) }

// Availability implements runtime.Env. Messages already queued for a node
// taken offline are dropped at delivery time by the host's online check.
func (e *Env) Availability() *runtime.Availability { return e.core.Availability() }

// step runs the earliest pending event if it is due — within the horizon
// and not after the current run time — and reports whether it ran one.
func (e *Env) step(until float64) bool {
	engine := e.core.Engine()
	t, ok := engine.NextTime()
	if !ok || t > until || t > e.Now() {
		return false
	}
	engine.Step()
	return true
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

// Run implements runtime.Env: it owns the run loop until the clock has
// passed the horizon, executing scheduled callbacks when the clock reaches
// their times and transport deliveries as they arrive. Events scheduled past
// the horizon stay pending, mirroring the simulated environment. A horizon of
// +Inf means no deadline: Run then returns only through Stop.
func (e *Env) Run(until float64) error {
	if wall := until * e.cfg.TimeScale; !math.IsInf(until, 1) && (wall > maxWallSeconds || wall != wall) {
		return fmt.Errorf("live: Run horizon %g run-seconds spans %g wall-clock seconds at TimeScale %g, beyond the one-year scheduling limit (lower the horizon or the time scale)",
			until, wall, e.cfg.TimeScale)
	}
	if e.closed {
		return transport.ErrClosed
	}
	e.clock.Start()
	for {
		if e.stopped.Load() {
			return nil
		}
		// Execute everything due at the current run time, then one pending
		// delivery of an external transport.
		for e.step(until) {
		}
		if len(e.inbox) > 0 {
			e.core.Deliver(<-e.inbox)
			continue
		}
		if e.Now() >= until {
			// The deadline has passed, so every event still pending within
			// the horizon is due by definition — most importantly the final
			// metric sample scheduled at exactly the horizon, which must not
			// lose a race against the deadline check. Every re-arms land at
			// their nominal times (no clamping, see Every), so a chain that
			// fell behind replays its remaining in-horizon repetitions right
			// here; each re-arm advances by a positive interval, so every
			// chain leaves the horizon and the drain terminates. At and
			// AtHook callbacks — proactive ticks included — cannot re-arm
			// within the horizon: At clamps new events to the current run
			// time, already past it. The engine then stands at the horizon,
			// as simnet.Env's does between runs.
			e.core.Engine().RunUntil(until)
			for len(e.inbox) > 0 {
				e.core.Deliver(<-e.inbox)
			}
			return nil
		}
		// Sleep until the next event, the deadline, a Stop, or a delivery —
		// whichever comes first.
		next := until
		if t, ok := e.core.Engine().NextTime(); ok && t < next {
			next = t
		}
		select {
		case <-e.clock.Wait(next):
		case <-e.wake:
		case d := <-e.inbox:
			e.core.Deliver(d)
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
