package protocol

import (
	"fmt"
	"sync"

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
// What every node has in common is held once, slab-wide: the Sender and a
// SharedPeerSelector (see NewSharedSlab). Per-node collaborators supplied in
// a Config — a PeerSelector, a Sender, a Rand — go to side tables that are
// only allocated by the first Init that brings one, and take precedence over
// the slab-wide ones; a slab whose nodes all run on shared collaborators and
// embedded generators (InitSeeded) carries no side table at all.
//
// Init or InitSeeded must be called exactly once per index before the node
// is used. Node pointers returned by Node remain valid for the lifetime of
// the slab; the backing arrays are never reallocated.
type Slab struct {
	nodes  []Node
	states []NodeState

	sender Sender
	peers  SharedPeerSelector

	// mu guards the allocation of the side tables during the (possibly
	// concurrent) build; they are read-only once the nodes run.
	mu         sync.Mutex
	nodeSender []Sender
	nodePeers  []PeerSelector
	nodeRand   []Rand
}

// NewSlab returns a slab with capacity for n nodes, all uninitialized, with
// no shared collaborators: every Config must bring its own.
func NewSlab(n int) *Slab { return NewSharedSlab(n, nil, nil) }

// NewSharedSlab returns a slab with capacity for n nodes, all uninitialized,
// whose nodes send through sender and sample peers through peers unless
// their Config overrides them. Either may be nil.
func NewSharedSlab(n int, sender Sender, peers SharedPeerSelector) *Slab {
	if n < 0 {
		panic(fmt.Sprintf("protocol: NewSlab(%d): negative size", n))
	}
	return &Slab{
		nodes:  make([]Node, n),
		states: make([]NodeState, n),
		sender: sender,
		peers:  peers,
	}
}

// Len returns the slab's capacity in nodes.
func (s *Slab) Len() int { return len(s.nodes) }

// Init validates cfg and initializes node i in place, drawing randomness
// from cfg.RNG. It is safe to call concurrently for distinct indices, which
// is what the runtime's parallel build loop does.
func (s *Slab) Init(i int, cfg Config) error {
	return s.init(i, cfg, rng.Source{}, false)
}

// InitSeeded is Init for a node whose randomness source is a SplitMix64
// generator seeded with seed and embedded in the node's row — the same
// stream as rng.New(seed), without a generator object or a side-table slot.
// cfg.RNG must be nil.
func (s *Slab) InitSeeded(i int, cfg Config, seed uint64) error {
	return s.init(i, cfg, rng.Seeded(seed), true)
}

func (s *Slab) init(i int, cfg Config, src rng.Source, seeded bool) error {
	if err := cfg.validate(s.sender != nil, s.peers != nil, seeded); err != nil {
		return err
	}
	if cfg.Sender != nil || cfg.Peers != nil || cfg.RNG != nil {
		s.mu.Lock()
		if cfg.Sender != nil {
			setSlot(&s.nodeSender, len(s.nodes), i, cfg.Sender)
		}
		if cfg.Peers != nil {
			setSlot(&s.nodePeers, len(s.nodes), i, cfg.Peers)
		}
		if cfg.RNG != nil {
			setSlot(&s.nodeRand, len(s.nodes), i, cfg.RNG)
		}
		s.mu.Unlock()
	}
	s.states[i] = NodeState{Account: core.MakeAccount(cfg.InitialTokens, core.AllowsOverspend(cfg.Strategy))}
	s.nodes[i] = Node{
		strategy: cfg.Strategy,
		app:      cfg.Application,
		slab:     s,
		idx:      i,
		id:       cfg.ID,
		rng:      src,
	}
	return nil
}

// setSlot stores v in slot i of a side table of n slots, allocating the table
// on first use.
func setSlot[T any](table *[]T, n, i int, v T) {
	if *table == nil {
		*table = make([]T, n)
	}
	(*table)[i] = v
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
	r := s.randOf(n)
	if core.Bernoulli(n.strategy.Proactive(st.Account.Balance()), r) {
		if s.sendOne(n, r) {
			st.Stats.ProactiveSent++
			return
		}
		// No peer was available: the round's token would otherwise be lost
		// to a message that cannot be sent, so bank it instead. This keeps
		// the node's long-run budget intact under churn.
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
	r := s.randOf(n)
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
	var peer NodeID
	var ok bool
	if s.nodePeers != nil && s.nodePeers[n.idx] != nil {
		peer, ok = s.nodePeers[n.idx].SelectPeer(r)
	} else {
		peer, ok = s.peers.SelectPeerOf(n.idx, r)
	}
	if !ok {
		return false
	}
	s.senderOf(n.idx).Send(n.id, peer, n.app.CreateMessage())
	return true
}

// randOf returns the node's randomness source: the one its Config supplied,
// or the generator embedded in its row.
func (s *Slab) randOf(n *Node) Rand {
	if s.nodeRand != nil && s.nodeRand[n.idx] != nil {
		return s.nodeRand[n.idx]
	}
	return &n.rng
}

// senderOf returns the Sender of node i: the one its Config supplied, or
// the slab-wide one.
func (s *Slab) senderOf(i int) Sender {
	if s.nodeSender != nil && s.nodeSender[i] != nil {
		return s.nodeSender[i]
	}
	return s.sender
}
