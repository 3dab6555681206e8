package runtime

import (
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/parallel"
	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/trace"
)

// Config describes the assembly of one run: the overlay, the strategy every
// node follows, the per-node application, the proactive period, and the
// availability model. It is runtime-neutral — the same Config builds
// against the discrete-event environment and the wall-clock one.
type Config struct {
	// Graph is the fixed communication overlay (required).
	Graph *overlay.Graph
	// Strategy is the token account strategy of every node (required). The
	// slab holds it once, not per node (see protocol.NewSlab).
	Strategy core.Strategy
	// NewApp returns the application instance of node i (required). NewHost
	// calls it concurrently for distinct indices (see NewHost).
	NewApp func(i int) protocol.Application
	// Delta is the proactive period Δ in seconds (the paper uses 172.80 s).
	Delta float64
	// Trace provides node availability; nil means every node is online for
	// the whole run (the failure-free scenario).
	Trace *trace.Trace
	// InitialTokens is the starting account balance (0 in the paper).
	InitialTokens int
	// Peers is the peer sampling service of every node, given the node's
	// index. Nil selects the overlay sampler every experiment uses: a uniform
	// draw over the node's online out-neighbours in Graph. The tokennode
	// daemon, whose membership is not a fixed overlay, passes its peer table.
	Peers protocol.SharedPeerSelector
	// OnRejoin, if non-nil, is invoked whenever a node transitions from
	// offline to online during the run (not for nodes already online at time
	// zero). The push gossip experiment uses it to issue the initial pull
	// request of §4.1.2.
	OnRejoin func(h *Host, node int)
	// Audit records every node's outgoing message times in a rate-limit
	// envelope for verification (§3.4; see AuditViolations). Strategy and
	// InitialTokens are slab-wide, so every node gets the same bound; an
	// unbounded strategy has nothing to audit.
	Audit bool
	// Network is the per-message loss and latency model (required): every
	// message the Host sends draws the model's Drop lottery and then its
	// Delay on the sending shard's StreamNet stream, and is handed to the
	// environment through Env.SendDelayed. The paper's network (§4.1) is
	// netmodel.Constant{D: 1.728}; loss composes as netmodel.Lossy.
	Network netmodel.Model
}

func (c Config) validate() error {
	switch {
	case c.Graph == nil:
		return fmt.Errorf("runtime: Config.Graph is nil")
	case c.Strategy == nil:
		return fmt.Errorf("runtime: Config.Strategy is nil")
	case c.NewApp == nil:
		return fmt.Errorf("runtime: Config.NewApp is nil")
	case !(c.Delta > 0) || math.IsInf(c.Delta, 1):
		return fmt.Errorf("runtime: Delta = %v, need > 0 and finite", c.Delta)
	case c.InitialTokens < 0:
		return fmt.Errorf("runtime: InitialTokens = %v, need ≥ 0", c.InitialTokens)
	case c.Network == nil:
		return fmt.Errorf("runtime: Config.Network is nil (use netmodel.Constant for a fixed transfer delay)")
	}
	if c.Trace != nil && c.Trace.N() < c.Graph.N() {
		return fmt.Errorf("runtime: trace covers %d nodes, overlay has %d", c.Trace.N(), c.Graph.N())
	}
	return nil
}

// Host is an assembled run: one protocol node per overlay vertex, their
// proactive loops and the churn transitions of the availability trace, all
// scheduled on the Env the Host was built against. Like the protocol nodes
// themselves, a Host is not safe for concurrent use: all interaction happens
// on the environment's dispatch goroutine (the caller's goroutine for the
// simulated environment, the run loop for the live one). On a Sharded
// environment the Host partitions its per-message state — network randomness
// streams and counters — by shard, so the shard workers the environment runs
// internally never contend; external interaction remains single-goroutine.
type Host struct {
	cfg Config
	env Env

	// slab holds every node's application row (16 bytes) and hot state row
	// (64 bytes) in two contiguous arrays (struct of arrays), and the one
	// strategy of Config.Strategy.
	// The Host is the slab's Sender and, unless Config.Peers replaces it, its
	// peer selector, and per-node generator state is embedded in the state
	// rows, so building n nodes costs a handful of allocations and no
	// companion slab.
	slab *protocol.Slab

	// avail is the environment's online set, read directly on every tick,
	// delivery and peer draw.
	avail *Availability

	// netRNG is the coordinator's StreamNet stream: random node and
	// neighbour selection, and — in unsharded runs — every per-message draw.
	netRNG protocol.Rand

	// shardOf, scheds, netRNGs and counts carry the per-shard state of a run
	// on a Sharded environment. A node's ticks are hook events on its
	// shard's scheduler; messages draw loss and latency randomness from the
	// stream of the sending node's shard, and sends and drops count into the
	// counters of the shard that handles them, so concurrent shard workers
	// never share mutable state.
	// shardOf is the environment's own routing function (ShardFunc), which
	// computes the shard from the node index, so no lookup of it touches a
	// per-node line. Unsharded runs degenerate to one shard: shardOf is nil,
	// scheds[0] is the environment itself, netRNGs[0] is netRNG (the
	// historical single-stream draw order, bit-for-bit) and counts has a
	// single element.
	shardOf func(node int32) int32
	scheds  []ShardScheduler
	netRNGs []protocol.Rand
	counts  []shardCounters

	// adj is the overlay's out-adjacency (overlay.Graph.OutAdjacency). Each
	// node's state row holds its CSR head into it, so a peer draw reads the
	// neighbours from the row the node's event already touched instead of
	// from the graph's offsets.
	adj []int32

	// envelopes is nil unless Config.Audit requests rate-limit audits of a
	// bounded strategy; then it holds one constant-size core.Envelope per
	// node, indexed by node.
	envelopes []core.Envelope

	// skippedInjections counts update injections that found no online node.
	// Injection drivers run in coordinator context (ScheduleArrivals chains
	// are run-global events), so a plain field suffices.
	skippedInjections int64
}

var _ protocol.Sender = (*Host)(nil)

// shardCounters holds one shard's send and drop counters, padded to a full
// cache line so concurrent shard workers do not false-share. Deliveries and
// bytes need no counter of their own: each is already counted in the
// receiving or sending node's state row (Stats().Received, Egress).
type shardCounters struct {
	sent, dropped int64
	_             [6]int64
}

// NewHost assembles a run against the environment: it instantiates one
// protocol node per overlay vertex with its own randomness stream, schedules
// the unsynchronized proactive rounds (each node starts at a uniformly
// random phase within [0, Δ)), applies the availability trace's initial
// state and schedules its churn transitions.
//
// The nodes are built over GOMAXPROCS contiguous index ranges at once, so
// Config.NewApp must be safe to call concurrently for distinct node
// indices: the built-in experiment apps and the examples only write
// per-node slots of preallocated slices, and chaotic iteration's lazy
// in-adjacency is built under a sync.Once. The assembled host is the same
// for every GOMAXPROCS: node construction draws no shared randomness, since
// every stream is derived from the node's index. If several nodes fail to
// build, NewHost returns the error of the lowest index, as a sequential
// build would.
func NewHost(env Env, cfg Config) (*Host, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if env == nil {
		return nil, fmt.Errorf("runtime: nil Env")
	}
	n := cfg.Graph.N()
	avail := env.Availability()
	if avail.N() < n {
		return nil, fmt.Errorf("runtime: environment has %d node slots, overlay has %d", avail.N(), n)
	}
	h := &Host{
		cfg:    cfg,
		env:    env,
		avail:  avail,
		netRNG: rng.New(env.StreamSeed(StreamNet)),
		adj:    cfg.Graph.OutAdjacency(),
	}
	peers := cfg.Peers
	if peers == nil {
		peers = (*overlayPeers)(h)
	}
	slab, err := protocol.NewSlab(n, cfg.Strategy, h, peers)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	h.slab = slab
	if sh, ok := env.(Sharded); ok && sh.NumShards() > 1 {
		shards := sh.NumShards()
		h.shardOf = sh.ShardFunc()
		h.scheds = make([]ShardScheduler, shards)
		h.netRNGs = make([]protocol.Rand, shards)
		for s := range h.netRNGs {
			h.scheds[s] = sh.Shard(s)
			h.netRNGs[s] = rng.New(env.StreamSeed(ShardNetStream(s)))
		}
		h.counts = make([]shardCounters, shards)
	} else {
		h.scheds = []ShardScheduler{env}
		h.netRNGs = []protocol.Rand{h.netRNG}
		h.counts = make([]shardCounters, 1)
	}
	// buildNode initializes node i in place. Construction consumes no shared
	// randomness — each node's stream is derived from its index — and writes
	// only slot i of the slab, so disjoint index ranges build concurrently.
	buildNode := func(i int) error {
		app := cfg.NewApp(i)
		if app == nil {
			return fmt.Errorf("runtime: NewApp(%d) returned nil", i)
		}
		nodeCfg := protocol.Config{
			Application:   app,
			InitialTokens: cfg.InitialTokens,
		}
		if err := h.slab.InitSeeded(i, nodeCfg, env.StreamSeed(uint64(i))); err != nil {
			return fmt.Errorf("runtime: node %d: %w", i, err)
		}
		h.setPeerHead(i)
		return nil
	}
	if err := parallel.Ranges(n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := buildNode(i); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if cfg.Trace != nil {
		for i := 0; i < n; i++ {
			if !cfg.Trace.Online(i, 0) {
				h.avail.Set(i, false)
			}
		}
	}
	if capacity := cfg.Strategy.Capacity(); cfg.Audit && capacity != core.UnboundedCapacity {
		// A node that starts with a₀ > C tokens may spend them all at once:
		// the bound is ⌈t/Δ⌉ + max(C, a₀).
		env := *core.NewEnvelope(cfg.Delta, max(capacity, cfg.InitialTokens))
		h.envelopes = make([]core.Envelope, n)
		for i := range h.envelopes {
			h.envelopes[i] = env
		}
	}
	env.SetDeliver(h.deliver)
	if p, ok := env.(Preloading); ok {
		p.SetPreloader(h)
	}
	h.scheduleRounds()
	h.scheduleChurn()
	return h, nil
}

// scheduleRounds starts every node's proactive loop at a random phase, as a
// tickHook event on the node's shard — the environment itself unless it is
// sharded, in which case ticks execute on the owning shard's worker. The
// event's word is that shard, so a tick re-arms without asking for it again.
// The phase draws happen in node order either way, so they are identical
// for every shard count.
func (h *Host) scheduleRounds() {
	phaseRNG := rng.New(h.env.StreamSeed(StreamPhase))
	n := h.slab.Len()
	for i := 0; i < n; i++ {
		phase := phaseRNG.Float64() * h.cfg.Delta
		s := h.shardIdx(protocol.NodeID(i))
		sched := h.scheds[s]
		sched.AtHook(sched.Now()+phase, (*tickHook)(h), int32(i), uint64(s))
	}
}

// tickHook drives one node's proactive loop as a typed event: tick the node
// if it is online, then re-arm one period after the tick has returned. That
// is the one tick policy of every runtime. In virtual time Now is the tick's
// nominal time, so ticks stay on their phase grid; in wall-clock time two
// consecutive token grants are at least Δ apart however late a tick fires or
// however long it takes — a stalled run loop never replays missed ticks in a
// burst, which is what keeps the §3.4 bound exact in real time. tickHook is
// the Host itself under a distinct method set, so scheduling it costs no
// allocation and hook identity is stable across the run.
type tickHook Host

func (t *tickHook) RunHook(node int32, shard uint64) {
	h := (*Host)(t)
	if h.Online(int(node)) {
		h.slab.Tick(int(node))
	}
	sched := h.scheds[shard]
	sched.AtHook(sched.Now()+h.cfg.Delta, t, node, shard)
}

var _ Preloader = (*tickHook)(nil)

// Preload implements Preloader for the tick lane, which the engine
// preloads through its hook (see sim.Engine.SetPreloader): it loads what
// the ticks of the given nodes will read, ahead of them. Every tick reads
// its node's state row, but most only bank a token; the lines of a send —
// the application's row and value, and the first and last out-neighbour —
// are worth loading only for the ticks that will send. So the loop goes in
// four passes, each of independent loads whose misses overlap: the state
// rows; the send decision of each tick (protocol.Slab.TickSends, the tick's
// own draw on a copy of its generator, a bit per node in sends); the
// application rows and neighbours of the senders; their application values,
// whose addresses the rows hold. A batch is LookaheadBatch nodes, so sends
// has a bit for each; past 64 nodes bits are shared, which only loads more.
// Like Host.Preload it writes nothing.
func (t *tickHook) Preload(nodes []int32) uint64 {
	h := (*Host)(t)
	var sum, sends uint64
	for _, i := range nodes {
		sum += uint64(h.slab.State(int(i)).PeerOff)
	}
	for k, i := range nodes {
		if h.slab.TickSends(int(i)) {
			sends |= 1 << (k & 63)
		}
	}
	for k, i := range nodes {
		if sends>>(k&63)&1 == 0 {
			continue
		}
		sum += h.slab.Preload(int(i))
		if st := h.slab.State(int(i)); st.PeerDeg > 0 {
			sum += uint64(h.adj[st.PeerOff]) + uint64(h.adj[st.PeerOff+st.PeerDeg-1])
		}
	}
	for k, i := range nodes {
		if sends>>(k&63)&1 != 0 {
			sum += h.slab.PreloadApp(int(i))
		}
	}
	return sum
}

var _ Preloader = (*Host)(nil)

// Preload implements Preloader: it loads what a churn transition or a
// delivery of the given nodes reads, ahead of it. The first loop loads
// the lines the event reads first: the node row and the state row — which
// also holds the generator, the byte counter and the CSR head. The second
// loop, once those are under way, follows them: the application's row,
// whose address is in the node row, and the first and last out-neighbour,
// whose place is in the state row, so both lines of a 20-neighbour list.
// The loads within a loop are independent, so their cache misses overlap
// instead of each event paying its own. Nothing is written, and everything
// read is either immutable (the overlay) or state of nodes the calling
// shard owns, so the loads are safe on any shard worker.
func (h *Host) Preload(nodes []int32) uint64 {
	var sum uint64
	for _, i := range nodes {
		sum += h.slab.Preload(int(i))
	}
	for _, i := range nodes {
		sum += h.slab.PreloadApp(int(i))
		if st := h.slab.State(int(i)); st.PeerDeg > 0 {
			sum += uint64(h.adj[st.PeerOff]) + uint64(h.adj[st.PeerOff+st.PeerDeg-1])
		}
	}
	return sum
}

// churnHook applies one trace transition as a typed event: word 1 brings the
// node online (firing the rejoin hook), word 0 takes it offline.
type churnHook Host

func (c *churnHook) RunHook(node int32, word uint64) {
	h := (*Host)(c)
	if word == 1 {
		h.SetOnline(int(node))
	} else {
		h.SetOffline(int(node))
	}
}

// scheduleChurn schedules the online/offline transitions from the trace, each
// a churnHook event on the coordinator.
func (h *Host) scheduleChurn() {
	tr := h.cfg.Trace
	if tr == nil {
		return
	}
	n := h.slab.Len()
	for i := 0; i < n && i < tr.N(); i++ {
		for _, iv := range tr.Segments[i].Intervals {
			if iv.Start > 0 {
				h.env.AtHook(iv.Start, (*churnHook)(h), int32(i), 1)
			}
			if iv.End < tr.Duration {
				// An interval reaching the end of the trace never transitions
				// back to offline: the run ends there anyway, and scheduling
				// the transition would make end-of-run metrics see an empty
				// network.
				h.env.AtHook(iv.End, (*churnHook)(h), int32(i), 0)
			}
		}
	}
}

// overlayPeers is the Host as the slab's shared peer sampling service: a
// uniform draw over the node's currently-online out-neighbours in the
// overlay. It is the Host itself under a distinct method set, so the sampler
// every node shares costs no memory per node.
type overlayPeers Host

var _ protocol.SharedPeerSelector = (*overlayPeers)(nil)

func (o *overlayPeers) SelectPeerOf(i int, r protocol.Rand) (protocol.NodeID, bool) {
	return (*Host)(o).selectOnlineNeighbor(i, r)
}

// setPeerHead copies node i's CSR head from the overlay into its state row,
// where selectOnlineNeighbor and Preload read it.
func (h *Host) setPeerHead(i int) {
	st := h.slab.State(i)
	st.PeerOff, st.PeerDeg = h.cfg.Graph.OutHead(i)
}

// selectOnlineNeighbor returns a uniformly random online out-neighbour of
// node i, drawing exactly one Intn from r, or false (and no draw) if none is
// online. With nobody offline that is one draw over the whole list; otherwise
// a two-pass scan of the online set (count, draw, select) makes the same
// single Intn call with the same bound, so peer choices are bit-identical
// either way. Both passes add online bits instead of branching on them; the
// select pass stops at the online neighbour that takes j below zero.
// Double-scanning is safe: the set cannot change within one call (callbacks
// are serialized; in sharded runs flips happen only at barriers).
func (h *Host) selectOnlineNeighbor(i int, r protocol.Rand) (protocol.NodeID, bool) {
	st := h.slab.State(i)
	nbrs := h.adj[st.PeerOff : st.PeerOff+st.PeerDeg]
	if h.avail.AllOnline() {
		if len(nbrs) == 0 {
			return protocol.NoNode, false
		}
		return protocol.NodeID(nbrs[r.Intn(len(nbrs))]), true
	}
	online := 0
	for _, v := range nbrs {
		online += h.avail.bit(v)
	}
	if online == 0 {
		return protocol.NoNode, false
	}
	j := r.Intn(online)
	for _, v := range nbrs {
		if j -= h.avail.bit(v); j < 0 {
			return protocol.NodeID(v), true
		}
	}
	return protocol.NoNode, false // unreachable: the set cannot change mid-call
}

// Env exposes the underlying environment, e.g. to schedule update injections
// or metric probes.
func (h *Host) Env() Env { return h.env }

// Run advances the run to the given time (see Env.Run). It fails if a
// node's activity counter reached protocol.MaxCount with more to count: the
// run is longer than its per-node counters hold.
func (h *Host) Run(until float64) error {
	if err := h.env.Run(until); err != nil {
		return err
	}
	if h.slab.Saturated() {
		return fmt.Errorf("runtime: a node's activity counter reached protocol.MaxCount = %d, so its counts stop there", uint64(protocol.MaxCount))
	}
	return nil
}

// N returns the number of nodes.
func (h *Host) N() int { return h.slab.Len() }

// Node returns the protocol node with index i: a by-value facade over the
// host's slab, valid for the host's lifetime.
func (h *Host) Node(i int) protocol.Node { return h.slab.Node(i) }

// App returns the application instance of node i.
func (h *Host) App(i int) protocol.Application { return h.slab.Node(i).Application() }

// Online reports whether node i is currently online: a bit test on the
// environment's online set, the availability read of every hot path.
func (h *Host) Online(i int) bool { return h.avail.Online(i) }

// SetOnline brings node i online in the environment's online set and fires
// the OnRejoin hook. It is a no-op for nodes already online, so the
// hook only observes real offline→online transitions.
func (h *Host) SetOnline(i int) {
	if h.Online(i) {
		return
	}
	h.avail.Set(i, true)
	if h.cfg.OnRejoin != nil {
		h.cfg.OnRejoin(h, i)
	}
}

// SetOffline takes node i offline in the environment's online set: its
// proactive loop pauses and messages addressed to it are dropped.
func (h *Host) SetOffline(i int) { h.avail.Set(i, false) }

// RandomOnlineNode returns a uniformly random online node, or false if every
// node is offline. It uses rejection sampling with a fallback scan so that it
// stays cheap when most of the network is online. It draws from the
// coordinator's StreamNet stream, so in sharded runs it must only be called
// from coordinator context (assembly, run-global events, rejoin hooks).
func (h *Host) RandomOnlineNode() (int, bool) {
	n := h.slab.Len()
	for attempt := 0; attempt < 32; attempt++ {
		i := h.netRNG.Intn(n)
		if h.Online(i) {
			return i, true
		}
	}
	start := h.netRNG.Intn(n)
	for d := 0; d < n; d++ {
		i := (start + d) % n
		if h.Online(i) {
			return i, true
		}
	}
	return 0, false
}

// RandomOnlineNeighbor returns a uniformly random online out-neighbour of the
// given node, or false if none is online. Like RandomOnlineNode it is
// coordinator-context only in sharded runs (it shares the coordinator
// stream). It is the nodes' own peer sampler on another stream: one Intn
// draw when a neighbour is online, none otherwise.
func (h *Host) RandomOnlineNeighbor(i int) (int, bool) {
	peer, ok := h.selectOnlineNeighbor(i, h.netRNG)
	if !ok {
		return 0, false
	}
	return int(peer), true
}

// SkipInjection records one update injection that was abandoned because no
// node was online to receive it. Heavy-churn and outage workloads lose
// updates this way; the counter makes the loss visible instead of silent.
func (h *Host) SkipInjection() { h.skippedInjections++ }

// InjectionsSkipped returns the number of update injections abandoned because
// the whole network was offline at injection time.
func (h *Host) InjectionsSkipped() int64 { return h.skippedInjections }

// ArrivalSource yields the event times of an arrival process: each Next call
// returns the next absolute run time, non-decreasing, +Inf (or NaN) once the
// process is exhausted. workload.Arrivals satisfies it; the runtime keeps its
// own copy of the interface so it does not depend on the workload package.
type ArrivalSource interface {
	Next() float64
}

// ScheduleArrivals drives fn from an arrival process: fn runs once at every
// time the source yields, as a run-global (coordinator) event, until the
// source is exhausted or fn returns false. Times in the past are clamped to
// the present and ties execute in schedule order; in virtual time a
// fixed-interval source fires exactly where Env.Every would. Only one event is
// pending at a time — the next arrival is sampled after fn returns — so
// arbitrarily long processes cost O(1) queue space.
func (h *Host) ScheduleArrivals(src ArrivalSource, fn func() bool) {
	var step func()
	var t float64
	step = func() {
		if !fn() {
			return
		}
		next := src.Next()
		if math.IsNaN(next) || math.IsInf(next, 1) {
			return
		}
		if next < t {
			next = t // defend the non-decreasing contract against bad sources
		}
		t = next
		h.env.At(t, step)
	}
	t = src.Next()
	if math.IsNaN(t) || math.IsInf(t, 1) {
		return
	}
	h.env.At(t, step)
}

// shardIdx returns the shard owning the given node (always 0 unsharded).
func (h *Host) shardIdx(node protocol.NodeID) int32 {
	if h.shardOf == nil {
		return 0
	}
	return h.shardOf(int32(node))
}

// shardNow returns the current time of the given shard's clock — the
// environment's clock in unsharded runs.
func (h *Host) shardNow(s int32) float64 { return h.scheds[s].Now() }

// Send implements protocol.Sender: the message is counted and sized, then
// the network model decides its fate — a Drop lottery, then a sampled Delay
// after which the environment delivers it back through deliver (or drops it
// in transit). All draws come from the sending shard's network stream in a
// fixed order — the single StreamNet stream in unsharded runs — so runs stay
// deterministic, sharded ones included: each node only ever sends from its
// owning shard's worker (or from the coordinator while that worker is parked
// at a barrier).
func (h *Host) Send(from, to protocol.NodeID, payload protocol.Payload) {
	s := h.shardIdx(from)
	c := &h.counts[s]
	c.sent++
	h.slab.State(int(from)).Egress += int64(protocol.PayloadSize(payload))
	if h.envelopes != nil {
		h.envelopes[from].Record(h.shardNow(s))
	}
	r, network := h.netRNGs[s], h.cfg.Network
	if network.Drop(from, to, r) {
		c.dropped++
		return
	}
	h.env.SendDelayed(from, to, payload, network.Delay(from, to, r))
}

// deliver is the environment's delivery callback: messages to offline nodes
// are dropped, everything else reaches the destination's Receive handler,
// which counts it in the node's state row. It executes on the destination's
// shard worker in sharded runs, so a drop counts into that shard's counters.
func (h *Host) deliver(from, to protocol.NodeID, payload protocol.Payload) {
	if !h.Online(int(to)) {
		h.counts[h.shardIdx(to)].dropped++
		return
	}
	h.slab.Receive(int(to), from, payload)
}

// MessagesSent returns the total number of messages handed to the host.
func (h *Host) MessagesSent() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].sent
	}
	return total
}

// MessagesDelivered returns the number of messages delivered to online nodes:
// the nodes' received counts, summed over the state rows (exact unless the
// slab saturated, see protocol.Slab.Saturated). No command reports it; it
// stays exported for the tests that check every sent message was delivered
// or dropped.
func (h *Host) MessagesDelivered() int64 { return int64(h.TotalStats().Received) }

// MessagesDropped returns the number of messages dropped by the network
// model's loss lottery or because the target was offline at delivery time.
func (h *Host) MessagesDropped() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].dropped
	}
	return total
}

// BytesSent returns the total wire bytes handed to the host, each message
// weighed by protocol.PayloadSize (one byte except for blockcast's). Like
// MessagesSent it counts at send time, before the loss lottery: dropped
// traffic still loaded the sender's uplink. It sums the nodes' egress over
// the state rows.
func (h *Host) BytesSent() int64 {
	var total int64
	states := h.slab.States()
	for i := range states {
		total += states[i].Egress
	}
	return total
}

// NodeBytes returns the wire bytes node i has sent so far. Reading it from
// coordinator context (metric probes, end-of-run reporting) is safe: shard
// workers are parked at a barrier whenever coordinator events run.
func (h *Host) NodeBytes(i int) int64 { return h.slab.State(i).Egress }

// AverageTokens returns the mean account balance. With onlineOnly set, only
// online nodes are considered (the churn scenario's convention). The scan
// runs over the contiguous state slab, not the node facades.
func (h *Host) AverageTokens(onlineOnly bool) float64 {
	sum, count := 0, 0
	states := h.slab.States()
	for i := range states {
		if onlineOnly && !h.Online(i) {
			continue
		}
		sum += states[i].Account.Balance()
		count++
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// TotalStats aggregates the protocol counters over all nodes with one scan
// of the state slab.
func (h *Host) TotalStats() protocol.Stats {
	var total protocol.Stats
	states := h.slab.States()
	for i := range states {
		s := states[i].Stats()
		total.ProactiveSent += s.ProactiveSent
		total.ReactiveSent += s.ReactiveSent
		total.Received += s.Received
		total.UsefulReceived += s.UsefulReceived
		total.TokensBanked += s.TokensBanked
		total.Rounds += s.Rounds
	}
	return total
}

// SamplePeriodic schedules fn to be called first phase after the current run
// time and then every interval, until the horizon passed to Run is reached.
// fn receives the nominal sample time (now+phase, now+phase+interval, ...):
// in the simulated environment that equals the virtual time of the callback
// bit-for-bit (the engine performs the same additions in the same order),
// and in the live one it keeps every repetition on the same sampling grid
// regardless of wall-clock jitter, so repeated live runs can still be
// averaged pointwise.
func (h *Host) SamplePeriodic(phase, interval float64, fn func(t float64)) {
	t := h.env.Now() + phase
	h.env.Every(phase, interval, func() bool {
		fn(t)
		t += interval
		return true
	})
}

// AuditViolations verifies the §3.4 rate bound for every node under
// Config.Audit and returns the violations found in node order (nil if every
// node complied or nothing was audited).
func (h *Host) AuditViolations() []*core.Violation {
	var out []*core.Violation
	for i := range h.envelopes {
		if v := h.envelopes[i].Verify(); v != nil {
			out = append(out, v)
		}
	}
	return out
}
