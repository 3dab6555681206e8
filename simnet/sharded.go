package simnet

import (
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
)

// ShardedEnvConfig parameterizes the sharded discrete-event environment.
type ShardedEnvConfig struct {
	// N is the number of node slots (required, ≥ 1). All nodes start online.
	N int
	// Seed drives every randomness stream of the run, with the same stream
	// derivation as the plain environment (see Env.StreamSeed).
	Seed uint64
	// Shards is the number of worker shards (≥ 1).
	Shards int
	// ShardOf returns the shard owning a node, in [0, Shards), for every
	// node in [0, N) (required; see sim.ShardedConfig.ShardOf).
	// netmodel.PlanShards derives it together with Lookahead.
	ShardOf func(node int32) int32
	// Lookahead is the minimum cross-shard delivery delay (> 0); see
	// sim.ShardedConfig.
	Lookahead float64
}

// ShardedEnv is the sharded discrete-event implementation of runtime.Env:
// the same contract as Env, executed by a sim.ShardedEngine under the
// conservative time-window protocol. The Env surface is the coordinator
// view — Now is the barrier clock, At and Every enqueue run-global
// events that execute single-threaded at barriers — while the
// runtime.Sharded capability exposes the per-shard schedulers the Host puts
// the proactive loops on. Lifecycle state is one shared runtime.Availability
// set: it is only written by coordinator events (churn runs at barriers) and read
// concurrently by the shard workers in between, which the window barrier
// makes race-free.
//
// For a fixed (seed, N, shard count) a run is bit-for-bit reproducible;
// different shard counts are different (equally valid) event interleavings
// of the same model.
type ShardedEnv struct {
	engine  *sim.ShardedEngine
	shardOf func(node int32) int32
	seed    uint64
	online  runtime.Availability
	deliver runtime.DeliverFunc
	facades []shardFacade
}

var (
	_ runtime.Sharded    = (*ShardedEnv)(nil)
	_ runtime.Preloading = (*ShardedEnv)(nil)
)

// NewShardedEnv builds a sharded discrete-event environment with every node
// online.
func NewShardedEnv(cfg ShardedEnvConfig) (*ShardedEnv, error) {
	switch {
	case cfg.N < 1:
		return nil, fmt.Errorf("simnet: ShardedEnvConfig.N = %d, need ≥ 1", cfg.N)
	}
	engine, err := sim.NewShardedEngine(sim.ShardedConfig{
		Shards:    cfg.Shards,
		Nodes:     cfg.N,
		ShardOf:   cfg.ShardOf,
		Lookahead: cfg.Lookahead,
	})
	if err != nil {
		return nil, err
	}
	e := &ShardedEnv{
		engine:  engine,
		shardOf: cfg.ShardOf,
		seed:    cfg.Seed,
		online:  runtime.NewAvailability(cfg.N),
		facades: make([]shardFacade, cfg.Shards),
	}
	for s := range e.facades {
		e.facades[s] = shardFacade{engine: engine, shard: s}
	}
	engine.SetSink(e)
	return e, nil
}

// Now implements runtime.Env with the coordinator's barrier clock.
func (e *ShardedEnv) Now() float64 { return e.engine.Now() }

// At implements runtime.Env on the coordinator queue.
func (e *ShardedEnv) At(t float64, fn func()) { e.engine.At(t, fn) }

// Every implements runtime.Env on the coordinator queue.
func (e *ShardedEnv) Every(phase, interval float64, fn func() bool) {
	e.engine.Every(phase, interval, fn)
}

// StreamSeed implements runtime.Env with the exact same stream derivation as
// the plain environment (see Env.StreamSeed), so per-node and phase
// randomness are identical for every shard count.
func (e *ShardedEnv) StreamSeed(stream uint64) uint64 { return rng.Derive(e.seed, stream) }

// AtHook implements runtime.Env on the coordinator: the hook event
// executes at a window barrier, like every coordinator event, from the
// hook's lane (see sim.Engine.ScheduleHookAt).
func (e *ShardedEnv) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.engine.ScheduleHookAt(t, node, word, hook)
}

// SendDelayed implements runtime.Env: the payload is delivered after the
// given delay of virtual time (the Host's network model samples it), routed by
// the shards of its endpoints — inline into the owning shard's queue when
// they coincide, through the cross-shard outboxes otherwise. Both paths
// store the delivery unboxed, so the steady-state message path allocates
// nothing regardless of where the destination lives.
func (e *ShardedEnv) SendDelayed(from, to protocol.NodeID, payload protocol.Payload, delay float64) {
	e.engine.Send(delay, sim.Delivery{
		From: int32(from),
		To:   int32(to),
		Kind: uint32(payload.Kind),
		Word: payload.Word,
		Box:  payload.Box,
	})
}

// Deliver implements sim.DeliverySink (see Env.Deliver). It runs on the
// destination shard's worker.
func (e *ShardedEnv) Deliver(d sim.Delivery) {
	e.deliver(protocol.NodeID(d.From), protocol.NodeID(d.To), protocol.Payload{
		Kind: protocol.PayloadKind(d.Kind),
		Word: d.Word,
		Box:  d.Box,
	})
}

// SetDeliver implements runtime.Env.
func (e *ShardedEnv) SetDeliver(fn runtime.DeliverFunc) { e.deliver = fn }

// SetPreloader implements runtime.Preloading on every shard engine (see
// sim.ShardedEngine.SetPreloader).
func (e *ShardedEnv) SetPreloader(p runtime.Preloader) { e.engine.SetPreloader(p) }

// Processed returns the number of events executed across all shards and the
// coordinator.
func (e *ShardedEnv) Processed() uint64 { return e.engine.Processed() }

// Availability implements runtime.Env. Shard workers read the set during a
// window; it only changes at barriers, since only coordinator events flip it.
func (e *ShardedEnv) Availability() *runtime.Availability { return &e.online }

// NumShards implements runtime.Sharded.
func (e *ShardedEnv) NumShards() int { return e.engine.NumShards() }

// ShardFunc implements runtime.Sharded with the function the engine routes
// by (ShardedEnvConfig.ShardOf).
func (e *ShardedEnv) ShardFunc() func(node int32) int32 { return e.shardOf }

// Shard implements runtime.Sharded.
func (e *ShardedEnv) Shard(s int) runtime.ShardScheduler { return &e.facades[s] }

// Run implements runtime.Env: windows execute until the barrier clock
// reaches the horizon (see sim.ShardedEngine.RunUntil).
func (e *ShardedEnv) Run(until float64) error {
	if math.IsNaN(until) {
		return fmt.Errorf("simnet: Run(NaN)")
	}
	e.engine.RunUntil(until)
	return nil
}

// Close implements runtime.Env: it terminates the shard workers.
func (e *ShardedEnv) Close() error {
	e.engine.Close()
	return nil
}

// shardFacade adapts one shard of the engine to runtime.ShardScheduler.
type shardFacade struct {
	engine *sim.ShardedEngine
	shard  int
}

var _ runtime.ShardScheduler = (*shardFacade)(nil)

func (f *shardFacade) Now() float64 { return f.engine.ShardNow(f.shard) }

// AtHook implements runtime.ShardScheduler on the shard's own engine: the hook
// runs on the shard worker at shard-local time t, from its lane in the
// shard's engine.
func (f *shardFacade) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	f.engine.ShardScheduleHookAt(f.shard, t, node, word, hook)
}
