package protocol

import (
	"errors"
	"fmt"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// NodeState is the hot mutable per-node state of Algorithm 4: the token
// account and the activity counters. It is deliberately small and
// pointer-free — exactly one 64-byte cache line — so a whole network's state
// packs into one contiguous slab (struct of arrays) instead of one heap
// object per node.
type NodeState struct {
	// Account is the node's token account, stored by value.
	Account core.Account
	// Stats are the node's activity counters.
	Stats Stats
}

// Slab is a struct-of-arrays allocation of protocol nodes: all Node rows
// live in one contiguous array and all mutable NodeState values in another,
// both addressed by dense node index and both 64 bytes per node, so one Tick
// or Receive touches one line of each — and, entered through Slab.Tick or
// Slab.Receive, computes both addresses from the index up front, so the two
// loads overlap instead of chaining.
//
// What every node has in common is held once, slab-wide: the Sender and the
// SharedPeerSelector. Each node's random generator is embedded in its row.
//
// InitSeeded must be called exactly once per index before the node is used.
// Node pointers returned by Node remain valid for the lifetime of the slab;
// the backing arrays are never reallocated.
type Slab struct {
	nodes  []Node
	states []NodeState

	sender Sender
	peers  SharedPeerSelector
}

// NewSlab returns a slab with capacity for n nodes, all uninitialized, whose
// nodes send through sender and sample peers through peers. Both are
// required.
func NewSlab(n int, sender Sender, peers SharedPeerSelector) (*Slab, error) {
	switch {
	case n < 0:
		return nil, fmt.Errorf("protocol: NewSlab(%d): negative size", n)
	case sender == nil:
		return nil, errors.New("protocol: NewSlab: nil Sender")
	case peers == nil:
		return nil, errors.New("protocol: NewSlab: nil peer selector")
	}
	return &Slab{
		nodes:  make([]Node, n),
		states: make([]NodeState, n),
		sender: sender,
		peers:  peers,
	}, nil
}

// Len returns the slab's capacity in nodes.
func (s *Slab) Len() int { return len(s.nodes) }

// InitSeeded validates cfg and initializes node i in place, with a
// SplitMix64 generator seeded with seed embedded in the node's row — the
// same stream as rng.New(seed), without a generator object. It writes only
// row i, so it is safe to call concurrently for distinct indices, which is
// what the runtime's parallel build loop does.
func (s *Slab) InitSeeded(i int, cfg Config, seed uint64) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	s.states[i] = NodeState{Account: core.MakeAccount(cfg.InitialTokens, core.AllowsOverspend(cfg.Strategy))}
	s.nodes[i] = Node{
		strategy: cfg.Strategy,
		app:      cfg.Application,
		slab:     s,
		idx:      i,
		id:       cfg.ID,
		rng:      rng.Seeded(seed),
	}
	return nil
}

// Node returns the facade for node i. The pointer is stable for the slab's
// lifetime.
func (s *Slab) Node(i int) *Node { return &s.nodes[i] }

// State returns the mutable state of node i. The pointer aliases the state
// used by the Node facade: reads and writes through either view observe the
// same balance and counters.
func (s *Slab) State(i int) *NodeState { return &s.states[i] }

// States returns the backing state array for sequential scans (average
// balance, stats totals). Callers must treat its length as fixed and must
// not retain it beyond the slab's lifetime.
func (s *Slab) States() []NodeState { return s.states }

// Preload reads one word of node i's row and one of its state row and
// returns their sum. It changes nothing: a runtime that knows which nodes
// run next (see runtime.LookaheadHook) calls it to bring both lines into
// cache ahead of use.
func (s *Slab) Preload(i int) uint64 {
	return uint64(s.nodes[i].id) + uint64(s.states[i].Account.Balance())
}

// Tick runs node i's proactive round (see Node.Tick).
func (s *Slab) Tick(i int) { s.tick(&s.nodes[i], &s.states[i]) }

// Receive runs node i's message handler (see Node.Receive).
func (s *Slab) Receive(i int, from NodeID, payload Payload) {
	s.receive(&s.nodes[i], &s.states[i], from, payload)
}

func (s *Slab) tick(n *Node, st *NodeState) {
	st.Stats.Rounds++
	r := &n.rng
	if core.Bernoulli(n.strategy.Proactive(st.Account.Balance()), r) {
		if s.sendOne(n, r) {
			st.Stats.ProactiveSent++
			return
		}
		// No peer was available: the round's token would otherwise be lost
		// to a message that cannot be sent, so bank it instead. This keeps
		// the node's long-run budget intact under churn — but never past
		// the capacity, or a node that saw no peer for a while could spend
		// more than C tokens in one burst, breaking the §3.4 bound.
		// Unbounded strategies keep banking.
		if c := n.strategy.Capacity(); c != core.UnboundedCapacity && st.Account.Balance() >= c {
			return
		}
	}
	st.Account.Deposit(1)
	st.Stats.TokensBanked++
}

func (s *Slab) receive(n *Node, st *NodeState, from NodeID, payload Payload) {
	st.Stats.Received++
	useful := n.app.UpdateState(from, payload)
	if useful {
		st.Stats.UsefulReceived++
	}
	r := &n.rng
	want := core.RandRound(n.strategy.Reactive(st.Account.Balance(), useful), r)
	spend := st.Account.SpendUpTo(want)
	for i := 0; i < spend; i++ {
		if !s.sendOne(n, r) {
			// No reachable peer: refund the unused tokens.
			st.Account.Deposit(spend - i)
			st.Stats.TokensBanked += spend - i
			return
		}
		st.Stats.ReactiveSent++
	}
}

// sendOne samples a peer for the node and sends one freshly created message
// to it. It reports whether a peer was available.
func (s *Slab) sendOne(n *Node, r Rand) bool {
	peer, ok := s.peers.SelectPeerOf(n.idx, r)
	if !ok {
		return false
	}
	s.sender.Send(n.id, peer, n.app.CreateMessage())
	return true
}
