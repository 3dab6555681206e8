// Package simnet is the discrete-event side of the runtime-neutral host API:
// Env implements runtime.Env on top of the sim engine, ShardedEnv on top of
// the sharded one. A simulated network — N token-account protocol nodes on a
// fixed overlay with per-node unsynchronized proactive rounds, message
// transfer delays and optional churn from an availability trace, the
// PeerSim assembly of the paper's evaluation (§4.1) — is a runtime.Host built
// against one of them:
//
//	env, err := simnet.NewEnv(simnet.EnvConfig{N: g.N(), Seed: seed})
//	host, err := runtime.NewHost(env, runtime.Config{Graph: g, Network: netmodel.Constant{D: 1.728}, ...})
//	err = host.Run(horizon)
package simnet

import (
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
)

// EnvConfig parameterizes the discrete-event environment.
type EnvConfig struct {
	// N is the number of node slots (required, ≥ 1). All nodes start online.
	N int
	// Seed drives every randomness stream of the run (see Env.StreamSeed).
	Seed uint64
	// TransferDelay is the virtual time Send takes to deliver one message. A
	// Host never calls Send — its Config.Network samples every delay — so
	// this only matters to code that sends straight through the environment.
	TransferDelay float64
}

// Env is the discrete-event implementation of runtime.Env: virtual time and
// timers come from a sim.Engine, the transport is a delayed in-engine
// delivery, randomness streams are SplitMix64 generators derived from the
// seed, and lifecycle state is a packed runtime.Availability set the Host
// reads directly at tick, delivery and peer-sampling time. It corresponds to
// the PeerSim experiment harness used in the paper's evaluation (§4.1).
//
// Env is not safe for concurrent use; everything runs on the goroutine
// driving the engine.
type Env struct {
	engine        *sim.Engine
	seed          uint64
	transferDelay float64
	online        runtime.Availability
	deliver       runtime.DeliverFunc
}

var (
	_ runtime.Env        = (*Env)(nil)
	_ runtime.Preloading = (*Env)(nil)
)

// NewEnv builds a discrete-event environment with every node online.
func NewEnv(cfg EnvConfig) (*Env, error) {
	switch {
	case cfg.N < 1:
		return nil, fmt.Errorf("simnet: EnvConfig.N = %d, need ≥ 1", cfg.N)
	case !validDelay(cfg.TransferDelay):
		return nil, fmt.Errorf("simnet: TransferDelay = %v, need ≥ 0 and finite", cfg.TransferDelay)
	}
	return &Env{
		engine:        sim.NewEngine(),
		seed:          cfg.Seed,
		transferDelay: cfg.TransferDelay,
		online:        runtime.NewAvailability(cfg.N),
		deliver:       func(protocol.NodeID, protocol.NodeID, protocol.Payload) {},
	}, nil
}

// Engine returns the engine the environment schedules on, for an
// environment that paces it against another clock (see live.Env).
func (e *Env) Engine() *sim.Engine { return e.engine }

// Now implements runtime.Env with the engine's virtual time.
func (e *Env) Now() float64 { return e.engine.Now() }

// At implements runtime.Env.
func (e *Env) At(t float64, fn func()) { e.engine.At(t, fn) }

// Schedule runs fn after the given delay of virtual time, as At(Now()+delay,
// fn) would.
func (e *Env) Schedule(delay float64, fn func()) { e.engine.Schedule(delay, fn) }

// Every implements runtime.Env.
func (e *Env) Every(phase, interval float64, fn func() bool) { e.engine.Every(phase, interval, fn) }

// Rand returns randomness stream s: a SplitMix64 generator seeded with
// StreamSeed(s).
func (e *Env) Rand(stream uint64) protocol.Rand { return rng.New(e.StreamSeed(stream)) }

// StreamSeed implements runtime.Env: stream s is seeded with
// rng.Derive(seed, s), which lets the Host embed per-node generator state in
// the node slab's rows.
func (e *Env) StreamSeed(stream uint64) uint64 { return rng.Derive(e.seed, stream) }

// AtHook implements runtime.Env: the hook event goes to the
// hook's lane in the engine (see sim.Engine.ScheduleHookAt), scheduled with
// the exact clamping and sequence numbering of At. The Host's periodic ticks
// and its presorted churn transitions therefore never enter the event queue.
func (e *Env) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.engine.ScheduleHookAt(t, node, word, hook)
}

// Send delivers the payload after the fixed TransferDelay of virtual time
// (see SendDelayed). A Host never calls it: it sends through SendDelayed
// with the delay its network model sampled.
func (e *Env) Send(from, to protocol.NodeID, payload protocol.Payload) {
	e.SendDelayed(from, to, payload, e.transferDelay)
}

// SendDelayed implements runtime.Env: the payload is delivered after the
// given delay of virtual time. The message travels as a typed delivery event
// stored inline in the engine — in a delivery lane or in the queue, see
// sim.Engine.ScheduleDelivery — so no closure is materialized and a
// word-encoded payload is never boxed: the steady-state message path
// allocates nothing. Negative and NaN delays are treated as zero by the
// engine.
func (e *Env) SendDelayed(from, to protocol.NodeID, payload protocol.Payload, delay float64) {
	e.engine.ScheduleDelivery(delay, sim.Delivery{
		From: int32(from),
		To:   int32(to),
		Kind: uint32(payload.Kind),
		Word: payload.Word,
		Box:  payload.Box,
	}, e)
}

// Deliver implements sim.DeliverySink: a due delivery event re-enters the
// host through the delivery callback stored by SetDeliver, a no-op until
// then. The environment itself is the sink for every delivery it schedules,
// so no per-message state is captured anywhere.
func (e *Env) Deliver(d sim.Delivery) {
	e.deliver(protocol.NodeID(d.From), protocol.NodeID(d.To), protocol.Payload{
		Kind: protocol.PayloadKind(d.Kind),
		Word: d.Word,
		Box:  d.Box,
	})
}

// SetDeliver implements runtime.Env.
func (e *Env) SetDeliver(fn runtime.DeliverFunc) { e.deliver = fn }

// SetPreloader implements runtime.Preloading on the engine, gated on N (see
// sim.Engine.SetPreloader).
func (e *Env) SetPreloader(p runtime.Preloader) { e.engine.SetPreloader(p, e.online.N()) }

// Processed returns the number of events the underlying engine has executed.
func (e *Env) Processed() uint64 { return e.engine.Processed() }

// Availability implements runtime.Env. Out-of-range node ids read offline
// instead of panicking, so a stray id from a scenario or trace degrades to a
// dropped message.
func (e *Env) Availability() *runtime.Availability { return &e.online }

// Run implements runtime.Env: events execute in (time, seq) order until
// virtual time reaches the horizon; events past it stay pending. A NaN
// horizon is an error: no event time lies past it, so periodic chains would
// re-arm forever.
func (e *Env) Run(until float64) error {
	if math.IsNaN(until) {
		return fmt.Errorf("simnet: Run(NaN)")
	}
	e.engine.RunUntil(until)
	return nil
}

// Close implements runtime.Env. The simulated environment holds no external
// resources, so Close is a no-op.
func (e *Env) Close() error { return nil }

// validDelay reports whether d is a usable fixed transfer delay: finite and
// not negative. The engine would read NaN as zero delay and +Inf as never.
func validDelay(d float64) bool { return d >= 0 && !math.IsInf(d, 1) }
