package blockcast

import (
	"testing"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// fakeNet records sends and serves as a configurable token gate.
type fakeNet struct {
	sent     []fakeMsg // free sends
	resps    []fakeMsg // token-gated responses that went through
	hasToken bool
}

// newState returns the state of node id, sending through net.
func newState(id protocol.NodeID, net Net) *State { return &State{id: id, net: net} }

type fakeMsg struct {
	from, to protocol.NodeID
	msg      Msg
}

func (n *fakeNet) Send(from, to protocol.NodeID, p protocol.Payload) {
	m, ok := MsgFromPayload(p)
	if !ok {
		panic("fakeNet: unparseable payload")
	}
	n.sent = append(n.sent, fakeMsg{from, to, m})
}

func (n *fakeNet) Respond(from, to protocol.NodeID, p protocol.Payload) bool {
	if !n.hasToken {
		return false
	}
	m, ok := MsgFromPayload(p)
	if !ok {
		panic("fakeNet: unparseable payload")
	}
	n.resps = append(n.resps, fakeMsg{from, to, m})
	return true
}

func TestStateGossip(t *testing.T) {
	net := &fakeNet{hasToken: true}
	s := newState(3, net)

	// A fresh node announces the empty chain.
	if m, _ := MsgFromPayload(s.CreateMessage()); m != (Msg{Kind: MsgAnnounce}) {
		t.Errorf("fresh CreateMessage = %+v", m)
	}

	// An announce of a newer head triggers a free pull for that height and
	// is not yet useful (the block has not arrived).
	if s.UpdateState(7, (Msg{Kind: MsgAnnounce, Height: 2, Batch: 5}).Payload()) {
		t.Error("announce counted as useful before the block arrived")
	}
	if len(net.sent) != 1 || net.sent[0] != (fakeMsg{3, 7, Msg{Kind: MsgPull, Height: 2}}) {
		t.Fatalf("pull not sent: %+v", net.sent)
	}

	// The block answer advances the head and is useful — this adoption is
	// what fuels the reactive announce burst.
	if !s.UpdateState(7, (Msg{Kind: MsgBlock, Height: 2, Batch: 5}).Payload()) {
		t.Error("block adoption not counted as useful")
	}
	if h, b := s.Head(); h != 2 || b != 5 {
		t.Errorf("head = (%d, %d), want (2, 5)", h, b)
	}
	if m, _ := MsgFromPayload(s.CreateMessage()); m != (Msg{Kind: MsgAnnounce, Height: 2, Batch: 5}) {
		t.Errorf("CreateMessage after adoption = %+v", m)
	}

	// A stale announce is ignored: no pull, not useful.
	if s.UpdateState(9, (Msg{Kind: MsgAnnounce, Height: 1, Batch: 1}).Payload()) || len(net.sent) != 1 {
		t.Error("stale announce triggered something")
	}
	// A stale block is ignored too.
	if s.UpdateState(9, (Msg{Kind: MsgBlock, Height: 1, Batch: 1}).Payload()) {
		t.Error("stale block counted as useful")
	}
	// Garbage payloads are ignored.
	if s.UpdateState(9, protocol.WordPayload(protocol.KindBlockcast, 3<<62)) {
		t.Error("invalid word counted as useful")
	}
}

func TestStateServesPulls(t *testing.T) {
	net := &fakeNet{hasToken: true}
	s := newState(1, net)
	// An empty node cannot serve.
	s.UpdateState(2, (Msg{Kind: MsgPull, Height: 1}).Payload())
	if len(net.resps) != 0 {
		t.Fatal("empty node served a block")
	}
	s.adopt(4, 8)
	// A pull for a height we have is answered with our head block.
	s.UpdateState(2, (Msg{Kind: MsgPull, Height: 3}).Payload())
	if len(net.resps) != 1 || net.resps[0] != (fakeMsg{1, 2, Msg{Kind: MsgBlock, Height: 4, Batch: 8}}) {
		t.Fatalf("pull answer = %+v", net.resps)
	}
	// A pull for a height beyond our head goes unanswered.
	s.UpdateState(2, (Msg{Kind: MsgPull, Height: 5}).Payload())
	if len(net.resps) != 1 {
		t.Error("served a block we do not have")
	}
	// Without a token, no answer — the gate is the responder's account.
	net.hasToken = false
	s.UpdateState(2, (Msg{Kind: MsgPull, Height: 1}).Payload())
	if len(net.resps) != 1 {
		t.Error("token-less node served a block")
	}
}

func TestChainProposeAndCommit(t *testing.T) {
	c, err := NewChain(3, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	net := &fakeNet{}
	proposer := newState(0, net)

	// An empty mempool proposes nothing.
	if c.TryPropose(10, proposer) {
		t.Error("proposed from an empty mempool")
	}
	c.Submit(5)
	if !c.TryPropose(10, proposer) {
		t.Fatal("proposal failed with pending transactions")
	}
	if h, b := proposer.Head(); h != 1 || b != 3 {
		t.Errorf("proposer head = (%d, %d), want (1, 3): the batch cap binds", h, b)
	}
	if c.pending != 2 || c.proposed != 1 || c.Backlog() != 1 {
		t.Errorf("chain after proposal: pending=%d proposed=%d backlog=%d", c.pending, c.proposed, c.Backlog())
	}
	if !c.TryPropose(20, proposer) {
		t.Fatal("second proposal failed")
	}
	if h, b := proposer.Head(); h != 2 || b != 2 {
		t.Errorf("proposer head = (%d, %d), want (2, 2): the remainder drains", h, b)
	}

	// Heads: nodes 0–3 hold height 2, node 4 holds 1, node 5 holds 0.
	heads := []uint64{2, 2, 2, 2, 1, 0}
	head := func(i int) uint64 { return heads[i] }

	// With all six online, height 1 has 5/6 ≥ 2/3 and commits; height 2 has
	// 4/6 ≥ 2/3 and commits in the same scan.
	if got := c.CheckCommits(30, len(heads), head, nil); got != 2 {
		t.Fatalf("committed %d heights, want 2", got)
	}
	if c.committed != 2 || c.Backlog() != 0 {
		t.Errorf("committed=%d backlog=%d", c.committed, c.Backlog())
	}
	// Latencies: height 1 proposed at 10, height 2 at 20, both committed at 30.
	if c.Latency.N() != 2 {
		t.Fatalf("latency samples = %d, want 2", c.Latency.N())
	}
	if lo, hi := c.Latency.Query(0), c.Latency.Query(1); lo != 10 || hi != 20 {
		t.Errorf("latency range = [%v, %v], want [10, 20]", lo, hi)
	}
	// A quiescent chain short-circuits.
	if got := c.CheckCommits(40, len(heads), head, nil); got != 0 {
		t.Errorf("recommitted %d heights", got)
	}
}

func TestChainCommitRespectsOnlineQuorum(t *testing.T) {
	c, err := NewChain(10, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	net := &fakeNet{}
	proposer := newState(0, net)
	c.Submit(1)
	if !c.TryPropose(0, proposer) {
		t.Fatal("proposal failed")
	}
	heads := []uint64{1, 1, 0, 0, 0, 0}
	head := func(i int) uint64 { return heads[i] }
	// All online: 2/6 < 2/3, no commit.
	if c.CheckCommits(1, len(heads), head, nil) != 0 {
		t.Error("committed without quorum")
	}
	// Only the two holders online: 2/2 ≥ 2/3, commits.
	online := func(i int) bool { return i < 2 }
	if c.CheckCommits(2, len(heads), head, online) != 1 {
		t.Error("did not commit with full online quorum")
	}
	// Everyone offline: nothing can commit (and nothing divides by zero).
	allOff := func(i int) bool { return false }
	c.Submit(1)
	c.TryPropose(3, proposer)
	if c.CheckCommits(4, len(heads), head, allOff) != 0 {
		t.Error("committed with the whole network offline")
	}
}

func TestNewChainValidation(t *testing.T) {
	for name, build := range map[string]func() (*Chain, error){
		"zero batch":     func() (*Chain, error) { return NewChain(0, 0.5) },
		"huge batch":     func() (*Chain, error) { return NewChain(MaxBatch+1, 0.5) },
		"zero quorum":    func() (*Chain, error) { return NewChain(1, 0) },
		"quorum above 1": func() (*Chain, error) { return NewChain(1, 1.1) },
	} {
		if _, err := build(); err == nil {
			t.Errorf("%s: NewChain succeeded, want error", name)
		}
	}
}

// TestSteadyStatePathAllocationFree pins the zero-alloc contract of the
// blockcast message path: gossip handling, proposing and commit scanning in
// steady state never touch the heap (after the chain's bookkeeping slices
// have reached their high-water mark).
func TestSteadyStatePathAllocationFree(t *testing.T) {
	net := &fakeNet{}
	c, err := NewChain(4, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*State, 8)
	for i := range states {
		states[i] = newState(protocol.NodeID(i), nopNet{})
	}
	_ = net
	head := func(i int) uint64 { h, _ := states[i].Head(); return h }
	now := 0.0
	step := func() {
		now++
		c.Submit(2)
		if c.TryPropose(now, states[0]) {
			h, b := states[0].Head()
			block := (Msg{Kind: MsgBlock, Height: h, Batch: b}).Payload()
			for _, s := range states[1:] {
				s.UpdateState(0, block)
			}
		}
		c.CheckCommits(now, len(states), head, nil)
	}
	for i := 0; i < 64; i++ {
		step() // reach the slices' high-water marks
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("steady-state blockcast path allocates %.1f per step, want 0", allocs)
	}
}

// nopNet drops everything; the allocation test only exercises state logic.
type nopNet struct{}

func (nopNet) Send(from, to protocol.NodeID, p protocol.Payload)         {}
func (nopNet) Respond(from, to protocol.NodeID, p protocol.Payload) bool { return false }
