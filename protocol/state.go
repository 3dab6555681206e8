package protocol

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// NodeState is the hot mutable per-node state of Algorithm 4 — the token
// account, the activity counters and the state of the node's SplitMix64
// generator — plus the two per-node words the runtime reads on every send.
// It is deliberately small and pointer-free — exactly one 64-byte cache line
// — so a whole network's state packs into one contiguous slab (struct of
// arrays) instead of one heap object per node, and everything a tick or a
// delivery needs of the node outside its 16-byte application row arrives
// with one line: a tick that sends nothing reads this row alone.
type NodeState struct {
	// Account is the node's token account, stored by value.
	Account core.Account
	// counts are the node's activity counters, 32 bits each (see Stats).
	counts counters
	// Egress is the node's wire bytes sent so far. The protocol never
	// touches it: the runtime's Sender adds each message's size.
	Egress int64
	// PeerOff and PeerDeg are the node's CSR head in the runtime's overlay:
	// its out-neighbours are the PeerDeg adjacency entries from PeerOff on.
	// The protocol never reads them; the runtime fills them at assembly, so
	// its peer draw starts from the line the node's event already holds.
	PeerOff, PeerDeg uint32
	// rng is the node's generator (see Slab.InitSeeded): every draw of its
	// ticks, receives and peer samples.
	rng rng.Source
}

// counters holds a node's activity counters in the slab, 32 bits each; Stats
// widens them. Each holds at most MaxCount events: a node counts one round
// per period Δ, sends at most one message per round plus max(C, a₀) under a
// bounded strategy (§3.4), and can receive at most every message the network
// sends, so a run of R rounds over N nodes stays within range when
// N·(R + max(C, a₀)) ≤ MaxCount: at the paper's N = 500 000, for up to
// 8 589 − max(C, a₀) rounds. A count that would pass MaxCount stays at
// MaxCount instead of wrapping, and marks the slab (see Slab.Saturated).
type counters struct {
	proactiveSent, reactiveSent, received, usefulReceived, tokensBanked, rounds uint32
}

// MaxCount is the largest value a per-node activity counter holds (see
// Stats).
const MaxCount = math.MaxUint32

// count adds k ≥ 0 to the counter c, a counter of one of the slab's rows.
func (s *Slab) count(c *uint32, k int) {
	v := uint64(*c) + uint64(k)
	if v > MaxCount {
		v = MaxCount
		s.saturated.Store(true)
	}
	*c = uint32(v)
}

// Stats returns the node's activity counters.
func (st *NodeState) Stats() Stats {
	c := &st.counts
	return Stats{
		ProactiveSent:  int(c.proactiveSent),
		ReactiveSent:   int(c.reactiveSent),
		Received:       int(c.received),
		UsefulReceived: int(c.usefulReceived),
		TokensBanked:   int(c.tokensBanked),
		Rounds:         int(c.rounds),
	}
}

// Slab is a struct-of-arrays allocation of protocol nodes: all applications
// live in one contiguous array (one 16-byte interface per node, four to a
// 64-byte line) and all mutable NodeState values in another (64 bytes per
// node), both addressed by dense node index. A Tick reads the node's state
// row, and its application only when it sends; a Receive reads both, and,
// entered through Slab.Receive, computes both addresses from the index up
// front, so the two loads overlap instead of chaining.
//
// What every node has in common is held once, slab-wide: the strategy, the
// Sender and the SharedPeerSelector. Each node's random generator is
// embedded in its state row, and its identity is its index.
//
// InitSeeded must be called exactly once per index before the node is used.
// The backing arrays are never reallocated.
type Slab struct {
	apps   []Application
	states []NodeState

	strategy  core.Strategy
	overspend bool // core.AllowsOverspend(strategy), for every new account
	sender    Sender
	peers     SharedPeerSelector

	// saturated is set once any node's counter has stopped at MaxCount.
	// Shards count concurrently, hence the atomic; it is only written on
	// that cold path.
	saturated atomic.Bool
}

// NewSlab returns a slab with capacity for n nodes, all uninitialized, whose
// nodes follow strategy, send through sender and sample peers through peers.
// All three are required.
func NewSlab(n int, strategy core.Strategy, sender Sender, peers SharedPeerSelector) (*Slab, error) {
	switch {
	case n < 0:
		return nil, fmt.Errorf("protocol: NewSlab(%d): negative size", n)
	case strategy == nil:
		return nil, errors.New("protocol: NewSlab: nil strategy")
	case sender == nil:
		return nil, errors.New("protocol: NewSlab: nil Sender")
	case peers == nil:
		return nil, errors.New("protocol: NewSlab: nil peer selector")
	}
	return &Slab{
		apps:      make([]Application, n),
		states:    make([]NodeState, n),
		strategy:  strategy,
		overspend: core.AllowsOverspend(strategy),
		sender:    sender,
		peers:     peers,
	}, nil
}

// Saturated reports whether any node's activity counter has reached
// MaxCount with more to count, so its Stats are short from then on.
func (s *Slab) Saturated() bool { return s.saturated.Load() }

// Len returns the slab's capacity in nodes.
func (s *Slab) Len() int { return len(s.apps) }

// InitSeeded validates cfg and initializes node i in place, with a
// SplitMix64 generator seeded with seed embedded in the node's state row —
// the same stream as rng.New(seed), without a generator object. It writes
// only node i's rows, so it is safe to call concurrently for distinct
// indices, which is what the runtime's parallel build loop does.
func (s *Slab) InitSeeded(i int, cfg Config, seed uint64) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	s.states[i] = NodeState{
		Account: core.MakeAccount(cfg.InitialTokens, s.overspend),
		rng:     rng.Seeded(seed),
	}
	s.apps[i] = cfg.Application
	return nil
}

// Node returns the facade for node i.
func (s *Slab) Node(i int) Node { return Node{slab: s, idx: i} }

// State returns the mutable state of node i. The pointer aliases the state
// used by the Node facade: reads and writes through either view observe the
// same balance and counters.
func (s *Slab) State(i int) *NodeState { return &s.states[i] }

// States returns the backing state array for sequential scans (average
// balance, stats totals). Callers must treat its length as fixed and must
// not retain it beyond the slab's lifetime.
func (s *Slab) States() []NodeState { return s.states }

// Preload reads the application's type word from node i's row and the
// balance from its state row and returns the balance, plus one if the row
// holds an application. It changes nothing: a runtime that knows which
// nodes run next (see runtime.Preloader) calls it to bring both lines into
// cache ahead of use.
func (s *Slab) Preload(i int) uint64 {
	sum := uint64(s.states[i].Account.Balance())
	if s.apps[i] != nil {
		sum++
	}
	return sum
}

// PreloadApp reads the first byte of node i's application value and returns
// it, changing nothing, to bring that line into cache ahead of use. Its
// address is in node i's row, so a runtime calls it once Preload has had
// time to load the row.
func (s *Slab) PreloadApp(i int) uint64 {
	// The data word of the interface: a pointer to the value, or the value
	// itself where that is pointer-shaped (a pointer, map, chan or func),
	// which then points at the runtime's object behind it.
	p := (*[2]unsafe.Pointer)(unsafe.Pointer(&s.apps[i]))[1]
	if p == nil {
		return 0
	}
	return uint64(*(*byte)(p))
}

// Tick runs node i's proactive round (see Node.Tick).
func (s *Slab) Tick(i int) { s.tick(i, &s.states[i]) }

// Receive runs node i's message handler (see Node.Receive).
func (s *Slab) Receive(i int, from NodeID, payload Payload) {
	s.receive(i, &s.apps[i], &s.states[i], from, payload)
}

func (s *Slab) tick(i int, st *NodeState) {
	s.count(&st.counts.rounds, 1)
	r := &st.rng
	if core.Bernoulli(s.strategy.Proactive(st.Account.Balance()), r) {
		if s.sendOne(i, s.apps[i], r) {
			s.count(&st.counts.proactiveSent, 1)
			return
		}
		// No peer was available: the round's token would otherwise be lost
		// to a message that cannot be sent, so bank it instead. This keeps
		// the node's long-run budget intact under churn — but never past
		// the capacity, or a node that saw no peer for a while could spend
		// more than C tokens in one burst, breaking the §3.4 bound.
		// Unbounded strategies keep banking.
		if c := s.strategy.Capacity(); c != core.UnboundedCapacity && st.Account.Balance() >= c {
			return
		}
	}
	st.Account.Deposit(1)
	s.count(&st.counts.tokensBanked, 1)
}

func (s *Slab) receive(i int, app *Application, st *NodeState, from NodeID, payload Payload) {
	s.count(&st.counts.received, 1)
	useful := (*app).UpdateState(from, payload)
	if useful {
		s.count(&st.counts.usefulReceived, 1)
	}
	r := &st.rng
	want := core.RandRound(s.strategy.Reactive(st.Account.Balance(), useful), r)
	spend := st.Account.SpendUpTo(want)
	for k := 0; k < spend; k++ {
		if !s.sendOne(i, *app, r) {
			// No reachable peer: refund the unused tokens.
			st.Account.Deposit(spend - k)
			s.count(&st.counts.tokensBanked, spend-k)
			return
		}
		s.count(&st.counts.reactiveSent, 1)
	}
}

// sendOne samples a peer for node i, whose application is app, and sends
// one freshly created message to it. It reports whether a peer was
// available.
func (s *Slab) sendOne(i int, app Application, r Rand) bool {
	peer, ok := s.peers.SelectPeerOf(i, r)
	if !ok {
		return false
	}
	s.sender.Send(NodeID(i), peer, app.CreateMessage())
	return true
}
