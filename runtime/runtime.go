// Package runtime defines the runtime-neutral host environment API of the
// framework: the Env interface abstracts everything a set of token account
// protocol nodes needs from its surroundings — a clock (virtual or wall) with
// timers, a message transport, per-node randomness streams and the online
// set that churn flips — and the Host assembles the nodes of one run against
// any Env. The Host's network model (Config.Network, a netmodel.Model) is the
// one source of message loss and delay: the environment only carries each
// message for the delay the model sampled (DelayedSender).
//
// Three environments implement Env:
//
//   - simnet.Env drives the discrete-event engine (package sim) in virtual
//     time, reproducing the paper's PeerSim-style evaluation setup,
//   - simnet.ShardedEnv runs the same model on a sharded engine, one worker
//     per shard under a conservative time-window protocol, and
//   - live.Env is a simnet.Env paced by the wall clock, over an optional
//     real transport (package transport), turning the very same assembly
//     into the deployable "traffic shaping service" the paper proposes.
//
// Everything all three provide is part of the Env contract, including the
// packed online set (Availability), the delayed transport (DelayedSender),
// the seeds of the randomness streams (StreamSeeder) and typed hook events
// (HookScheduler), which carry every node's proactive tick and every churn
// transition of a trace. An Env implemented outside this module must provide
// all of them; AtHook may simply wrap At. Sharded, which
// marks the one parallel environment, is one optional Env capability;
// Preloading, which lets the simulated environments tell the Host which
// nodes' events run next, whether ticks, churn transitions or deliveries, is
// the other.
//
// Because scenario drivers, availability traces and metric probes only talk
// to the Host and its Env, they run identically in every world: an
// experiment validated in simulation executes unchanged — just scaled to
// real time — on the live runtime (see the experiment package's
// RuntimeDriver dimension).
package runtime

import "github.com/szte-dcs/tokenaccount/protocol"

// DeliverFunc consumes a message that has traversed the environment's
// transport and is ready for delivery to the destination node.
type DeliverFunc func(from, to protocol.NodeID, payload protocol.Payload)

// Env is the substrate one run of the protocol executes on. Times are
// float64 seconds since the start of the run: virtual seconds in the
// discrete-event environment, wall-clock seconds (optionally compressed by a
// time scale) in the live one.
//
// Environments serialize all callbacks — scheduled timers, repeating events
// and message deliveries — on a single dispatch goroutine, so Host state and
// protocol nodes need no locking. Env methods themselves must only be called
// during assembly (before Run) or from within dispatched callbacks.
type Env interface {
	// Now returns the current run time in seconds.
	Now() float64

	// At schedules fn at the given absolute run time. Times in the past are
	// clamped to the present, so At(Now()+d, fn) runs fn after a delay d.
	At(t float64, fn func())

	// Every schedules fn at phase, phase+interval, phase+2·interval, ...
	// until the run ends or fn returns false.
	Every(phase, interval float64, fn func() bool)

	// SetDeliver installs the delivery callback. The Host installs itself
	// here during assembly; environments must not deliver before it is set.
	SetDeliver(fn DeliverFunc)

	// Availability returns the online set of the environment's node slots.
	// Its size is the number of slots; it stays the same set for the
	// environment's lifetime. The Host flips nodes in it and reads it
	// directly on its hot paths. The flags are advisory: the Host consults
	// the set before ticking a node and before delivering to it, so an
	// offline node neither runs its proactive loop nor receives messages —
	// transports may keep accepting traffic for the node, which is then
	// discarded at delivery time.
	Availability() *Availability

	// Run drives the environment until the given run time: the simulated
	// environment executes events until virtual time reaches the horizon,
	// the live one blocks until the corresponding wall-clock deadline.
	// Events scheduled past the horizon remain pending.
	Run(until float64) error

	// Close releases environment resources (transport endpoints, timer
	// goroutines). It must not be called while Run is executing.
	Close() error

	// The transport every message takes with its model-sampled delay, the
	// seeds of the randomness streams and the typed hook events of ticks and
	// churn (see each interface).
	DelayedSender
	StreamSeeder
	HookScheduler
}

// DelayedSender is the Env's transport: SendDelayed hands a payload to the
// environment for delivery from one node to another after the given transfer
// latency (in run-seconds), and the environment eventually invokes the
// DeliverFunc installed with SetDeliver. The Host draws loss and delay from
// Config.Network on its StreamNet stream and calls SendDelayed for every
// message that survives, so the environment stays a pure executor — the
// discrete-event implementation feeds the delay straight into the engine's
// per-event delivery slot (no allocation, word payloads never boxed), and the
// live one maps it onto its message scheduling.
type DelayedSender interface {
	SendDelayed(from, to protocol.NodeID, payload protocol.Payload, delay float64)
}

// ShardScheduler is the per-shard scheduling surface of a Sharded
// environment: shard-local virtual time plus hook events that run on the
// shard's own worker and must only touch state owned by that shard's nodes.
// During a window, Now runs ahead of the coordinator clock by up to the
// lookahead. Every Env is also the ShardScheduler of its one shard.
type ShardScheduler interface {
	Now() float64
	HookScheduler
}

// Sharded is the optional Env capability behind parallel single-run
// execution: the environment partitions the node space across worker shards
// executing under a conservative time-window protocol. The Env interface
// itself remains the coordinator view — its scheduling methods enqueue
// run-global events that execute single-threaded at window barriers with
// every shard synchronized, so existing scenario drivers, metric probes and
// rejoin hooks work unchanged. Per-node work (the proactive loops) must
// instead be scheduled on the owning shard through Shard, which the Host
// does when it detects the capability. Flips of the online set are
// coordinator-only; the set is safe to read from any shard during a window
// because flips only happen at barriers.
type Sharded interface {
	Env
	// NumShards returns the number of worker shards (≥ 1).
	NumShards() int
	// ShardFunc returns the function the environment routes by: the shard
	// owning a node, for every node slot of Availability. It is pure and safe for
	// concurrent use, so the Host calls it from any shard worker.
	ShardFunc() func(node int32) int32
	// Shard returns the scheduling surface of one shard.
	Shard(s int) ShardScheduler
}

// Hook is a pre-registered target for typed scheduled events: RunHook is
// invoked when a hook event scheduled with HookScheduler.AtHook comes due,
// with the node index and word captured at schedule time. Hosts use hooks for
// the per-node proactive loops and churn transitions, which would otherwise
// cost one long-lived closure per node per event.
type Hook interface {
	RunHook(node int32, word uint64)
}

// Preloading is an optional Env capability. An environment that knows
// which nodes' events come next — the simulated ones keep hook events and
// fixed-delay deliveries in sorted lanes (see sim.Engine.SetPreloader) —
// hands some of those nodes, a few events before they run, to the Preloader
// installed here, on the goroutine that will run those events. Every hook
// event's node must therefore be a node index, as HookScheduler defines it.
// The Host installs itself at assembly.
type Preloading interface {
	SetPreloader(p Preloader)
}

// Preloader loads what events of the given nodes will touch, ahead of them.
// Preload must only read, and only state those events may touch. It returns
// any value derived from the loaded words, which the caller keeps so the
// loads are not discarded as dead code. Its method set is sim.Preloader's.
type Preloader interface {
	Preload(nodes []int32) uint64
}

// HookScheduler is part of Env and ShardScheduler. AtHook behaves exactly
// like At(t, func() { hook.RunHook(node, word) }) — same past-time clamping,
// same position in the environment's tie-break order — and may be
// implemented as just that. The shipped environments instead carry
// (hook, node, word) as plain event data in a sim.Engine hook lane, so
// per-node events schedule without materializing closures. Implementations may key internal state on
// the hook's identity; callers must register each distinct hook (its first
// AtHook call) during assembly or from coordinator context, and may then
// reschedule it freely from its own callbacks.
type HookScheduler interface {
	AtHook(t float64, hook Hook, node int32, word uint64)
}

// StreamSeeder is the Env's source of randomness: StreamSeed returns the
// seed of one randomness stream, derived from the run seed, and a SplitMix64
// generator seeded with it (rng.New) is that stream. Streams of distinct
// indices are statistically independent. The Host builds its net and phase
// generators that way and embeds each node's generator state in the node's
// slab row (8 bytes) instead of allocating one generator object per node.
type StreamSeeder interface {
	StreamSeed(stream uint64) uint64
}

// Randomness stream indices used by the Host. Environments derive their
// streams with rng.Derive(seed, stream), so these constants pin down the
// exact random sequences of a run: node i draws from stream uint64(i), the
// network-level decisions (drop lottery, random node selection) from
// StreamNet, and the proactive phase offsets from StreamPhase. They are
// exported so that alternative environments and tests can reproduce the
// streams bit-for-bit.
const (
	// StreamNet feeds network-level randomness ("net" in ASCII).
	StreamNet uint64 = 0x6e6574
	// StreamPhase feeds the per-node proactive phase offsets ("phase").
	StreamPhase uint64 = 0x7068617365
)

// ShardNetStream returns the network randomness stream of one shard in a
// sharded run: messages originating from a node draw their loss and latency
// randomness from the stream of the owning shard, so the draws of one shard
// never depend on the execution interleaving of the others and a run is
// reproducible for a fixed (seed, shard count). The shard index lives in the
// high half of the stream word, far above both StreamNet itself and the
// per-node streams (dense node indices), so the streams never collide.
func ShardNetStream(shard int) uint64 {
	return StreamNet ^ (uint64(shard+1) << 32)
}
