package protocol

import (
	"fmt"
	"testing"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// collectingSender records every sent message.
type collectingSender struct {
	msgs []sentMsg
}

type sentMsg struct {
	from, to NodeID
	payload  Payload
}

func (c *collectingSender) Send(from, to NodeID, payload Payload) {
	c.msgs = append(c.msgs, sentMsg{from, to, payload})
}

// staticPeers always returns the same peer (or none).
type staticPeers struct {
	peer NodeID
	ok   bool
}

func (s staticPeers) SelectPeerOf(int, Rand) (NodeID, bool) { return s.peer, s.ok }

// countingApp marks messages useful according to a toggle and counts calls.
type countingApp struct {
	useful    bool
	created   int
	updated   int
	lastFrom  NodeID
	lastValue any
}

func (a *countingApp) CreateMessage() Payload { a.created++; return BoxPayload(a.created) }

func (a *countingApp) UpdateState(from NodeID, payload Payload) bool {
	a.updated++
	a.lastFrom = from
	a.lastValue = payload.Box
	return a.useful
}

// newTestNode builds node 1 as the only initialized row of a two-row slab,
// on a generator seeded with 42.
func newTestNode(t *testing.T, s core.Strategy, app Application, sender Sender, peers SharedPeerSelector) Node {
	t.Helper()
	return newTestNodeWith(t, s, Config{Application: app}, sender, peers)
}

// newTestNodeWith is newTestNode for a full node Config.
func newTestNodeWith(t *testing.T, s core.Strategy, cfg Config, sender Sender, peers SharedPeerSelector) Node {
	t.Helper()
	slab, err := NewSlab(2, s, sender, peers)
	if err != nil {
		t.Fatalf("NewSlab: %v", err)
	}
	if err := slab.InitSeeded(1, cfg, 42); err != nil {
		t.Fatalf("InitSeeded: %v", err)
	}
	return slab.Node(1)
}

func TestProactiveNodeSendsEveryRound(t *testing.T) {
	sender := &collectingSender{}
	app := &countingApp{}
	n := newTestNode(t, core.PurelyProactive{}, app, sender, staticPeers{peer: 7, ok: true})
	for i := 0; i < 10; i++ {
		n.Tick()
	}
	if len(sender.msgs) != 10 {
		t.Fatalf("sent %d messages, want 10", len(sender.msgs))
	}
	if n.Tokens() != 0 {
		t.Errorf("balance = %d, want 0", n.Tokens())
	}
	st := n.Stats()
	if st.ProactiveSent != 10 || st.ReactiveSent != 0 || st.Rounds != 10 {
		t.Errorf("stats = %+v", st)
	}
	for _, m := range sender.msgs {
		if m.from != 1 || m.to != 7 {
			t.Errorf("message addressed %d->%d, want 1->7", m.from, m.to)
		}
	}
}

func TestSimpleNodeBanksUntilFull(t *testing.T) {
	sender := &collectingSender{}
	n := newTestNode(t, core.MustSimple(3), &countingApp{}, sender, staticPeers{peer: 2, ok: true})
	// Rounds 1-3 bank (a = 0,1,2 < 3), round 4 onwards the account is full.
	for i := 0; i < 6; i++ {
		n.Tick()
	}
	if n.Tokens() != 3 {
		t.Errorf("balance = %d, want 3", n.Tokens())
	}
	if len(sender.msgs) != 3 {
		t.Errorf("sent %d proactive messages, want 3", len(sender.msgs))
	}
}

func TestSimpleNodeReactsWhileTokensLast(t *testing.T) {
	sender := &collectingSender{}
	app := &countingApp{useful: true}
	n := newTestNode(t, core.MustSimple(5), app, sender, staticPeers{peer: 2, ok: true})
	for i := 0; i < 3; i++ {
		n.Tick() // bank three tokens
	}
	for i := 0; i < 5; i++ {
		n.Receive(9, BoxPayload("payload"))
	}
	// Three reactive sends (one per banked token), then the account is empty.
	if got := n.Stats().ReactiveSent; got != 3 {
		t.Errorf("ReactiveSent = %d, want 3", got)
	}
	if n.Tokens() != 0 {
		t.Errorf("balance = %d, want 0", n.Tokens())
	}
	if app.updated != 5 {
		t.Errorf("UpdateState called %d times, want 5", app.updated)
	}
	if app.lastFrom != 9 || app.lastValue != "payload" {
		t.Errorf("UpdateState got (%v, %v)", app.lastFrom, app.lastValue)
	}
}

func TestGeneralizedNodeBurnsProportionally(t *testing.T) {
	sender := &collectingSender{}
	n := newTestNode(t, core.MustGeneralized(1, 10), &countingApp{useful: true}, sender, staticPeers{peer: 2, ok: true})
	for i := 0; i < 6; i++ {
		n.Tick() // bank 6 tokens (capacity 10)
	}
	n.Receive(3, Payload{})
	// A = 1 spends the full balance on a useful message.
	if got := n.Stats().ReactiveSent; got != 6 {
		t.Errorf("ReactiveSent = %d, want 6", got)
	}
	if n.Tokens() != 0 {
		t.Errorf("balance = %d, want 0", n.Tokens())
	}
}

func TestUselessMessagesSpendNothingWhenScarce(t *testing.T) {
	// Generalized with A >= a returns 0 for useless messages.
	sender := &collectingSender{}
	n := newTestNode(t, core.MustGeneralized(5, 10), &countingApp{useful: false}, sender, staticPeers{peer: 2, ok: true})
	for i := 0; i < 4; i++ {
		n.Tick()
	}
	before := n.Tokens()
	n.Receive(3, Payload{})
	if n.Tokens() != before {
		t.Errorf("balance changed from %d to %d on useless message", before, n.Tokens())
	}
	if n.Stats().ReactiveSent != 0 {
		t.Errorf("ReactiveSent = %d, want 0", n.Stats().ReactiveSent)
	}
}

// TestNoPeerAvailableBanksToken: with no peer to send to, a node banks the
// round's token instead of losing it, but never past its capacity C — a
// fuller account could spend more than C tokens in one burst once peers
// return, breaking the §3.4 bound. Every bounded family therefore stops at
// C, an unbounded strategy keeps banking, and a node that starts above C
// never banks.
func TestNoPeerAvailableBanksToken(t *testing.T) {
	const rounds = 30
	for _, c := range []struct {
		s       core.Strategy
		initial int
		want    int
	}{
		{core.PurelyProactive{}, 0, 0},
		{core.MustSimple(10), 0, 10},
		{core.MustGeneralized(5, 10), 0, 10},
		{core.MustRandomized(5, 10), 0, 10},
		{core.MustRandomized(5, 10), 13, 13},
		{core.MustPureReactive(2, false), 0, rounds},
	} {
		t.Run(fmt.Sprintf("%s/a0=%d", c.s.Name(), c.initial), func(t *testing.T) {
			sender := &collectingSender{}
			n := newTestNodeWith(t, c.s, Config{Application: &countingApp{}, InitialTokens: c.initial},
				sender, staticPeers{ok: false})
			limit := max(c.s.Capacity(), c.initial)
			for i := 0; i < rounds; i++ {
				n.Tick()
				if capacity := c.s.Capacity(); capacity != core.UnboundedCapacity && n.Tokens() > limit {
					t.Fatalf("round %d: balance %d above max(C, a0) = %d", i, n.Tokens(), limit)
				}
			}
			if len(sender.msgs) != 0 {
				t.Errorf("sent %d messages with no peers, want 0", len(sender.msgs))
			}
			if n.Tokens() != c.want {
				t.Errorf("balance = %d after %d peerless rounds, want %d", n.Tokens(), rounds, c.want)
			}
			if got, want := n.Stats().TokensBanked, c.want-c.initial; got != want {
				t.Errorf("TokensBanked = %d, want %d", got, want)
			}
		})
	}
}

// budgetPeers answers the first ok draws with a peer and every later one
// with none: peers that vanish partway through a reactive burst.
type budgetPeers struct{ ok int }

func (p *budgetPeers) SelectPeerOf(int, Rand) (NodeID, bool) {
	if p.ok == 0 {
		return NoNode, false
	}
	p.ok--
	return 2, true
}

// TestReactiveRefundNeverExceedsSpend pins the refund in Slab.receive: when
// peers vanish partway through a reactive burst, the node gets back exactly
// the tokens it did not send, so its balance never rises above the balance
// before the spend — the refund cannot mint tokens past C.
func TestReactiveRefundNeverExceedsSpend(t *testing.T) {
	for _, s := range []core.Strategy{
		core.MustSimple(10), core.MustGeneralized(1, 10), core.MustGeneralized(5, 10),
		core.MustRandomized(5, 10), core.MustPureReactive(3, false),
	} {
		for before := 0; before <= 12; before++ {
			for ok := 0; ok <= 4; ok++ {
				sender := &collectingSender{}
				peers := &budgetPeers{ok: ok}
				n := newTestNodeWith(t, s, Config{Application: &countingApp{useful: true}, InitialTokens: before},
					sender, peers)
				n.Receive(4, Payload{})
				sent := len(sender.msgs)
				if after := n.Tokens(); after != before-sent || after > before {
					t.Fatalf("%s, balance %d, %d peers answering: sent %d, balance after %d; want %d",
						s.Name(), before, ok, sent, after, before-sent)
				}
				if st := n.Stats(); st.ReactiveSent != sent {
					t.Fatalf("%s, balance %d, %d peers answering: ReactiveSent = %d after %d sends", s.Name(), before, ok, st.ReactiveSent, sent)
				}
			}
		}
	}
}

func TestReactiveRefundWhenPeersVanish(t *testing.T) {
	// Peers disappear after the node has banked tokens: reactive sends fail
	// and the tokens must be refunded.
	sender := &collectingSender{}
	peers := &togglePeers{peer: 2, ok: true}
	app := &countingApp{useful: true}
	n := newTestNode(t, core.MustGeneralized(1, 10), app, sender, peers)
	for i := 0; i < 5; i++ {
		n.Tick()
	}
	peers.ok = false
	n.Receive(4, Payload{})
	if n.Tokens() != 5 {
		t.Errorf("balance = %d, want 5 (refunded)", n.Tokens())
	}
	if n.Stats().ReactiveSent != 0 {
		t.Errorf("ReactiveSent = %d, want 0", n.Stats().ReactiveSent)
	}
}

type togglePeers struct {
	peer NodeID
	ok   bool
}

func (p *togglePeers) SelectPeerOf(int, Rand) (NodeID, bool) { return p.peer, p.ok }

func TestPureReactiveNodeFloods(t *testing.T) {
	sender := &collectingSender{}
	n := newTestNode(t, core.MustPureReactive(2, false), &countingApp{useful: true}, sender, staticPeers{peer: 2, ok: true})
	n.Tick() // never sends proactively
	if n.Stats().ProactiveSent != 0 {
		t.Errorf("ProactiveSent = %d, want 0", n.Stats().ProactiveSent)
	}
	n.Receive(5, Payload{})
	if n.Stats().ReactiveSent != 2 {
		t.Errorf("ReactiveSent = %d, want 2", n.Stats().ReactiveSent)
	}
	if n.Tokens() >= 0 {
		t.Errorf("balance = %d, want negative (overspending allowed)", n.Tokens())
	}
}

func TestRespondDirect(t *testing.T) {
	sender := &collectingSender{}
	n := newTestNode(t, core.MustSimple(5), &countingApp{}, sender, staticPeers{peer: 2, ok: true})
	if n.RespondDirect(9) {
		t.Error("RespondDirect succeeded with empty account")
	}
	n.Tick() // bank one token
	if !n.RespondDirect(9) {
		t.Error("RespondDirect failed with one token")
	}
	if n.Tokens() != 0 {
		t.Errorf("balance = %d, want 0 after direct response", n.Tokens())
	}
	last := sender.msgs[len(sender.msgs)-1]
	if last.to != 9 {
		t.Errorf("direct response sent to %d, want 9", last.to)
	}
}

func TestRespondPayload(t *testing.T) {
	sender := &collectingSender{}
	n := newTestNode(t, core.MustSimple(5), &countingApp{}, sender, staticPeers{peer: 2, ok: true})
	custom := WordPayload(PayloadKind(1004), 77)
	if n.RespondPayload(9, custom) {
		t.Error("RespondPayload succeeded with empty account")
	}
	n.Tick() // bank one token
	if !n.RespondPayload(9, custom) {
		t.Error("RespondPayload failed with one token")
	}
	if n.Tokens() != 0 {
		t.Errorf("balance = %d, want 0 after direct response", n.Tokens())
	}
	if n.Stats().ReactiveSent != 1 {
		t.Errorf("ReactiveSent = %d, want 1", n.Stats().ReactiveSent)
	}
	last := sender.msgs[len(sender.msgs)-1]
	if last.to != 9 || last.payload != custom {
		t.Errorf("direct response = %+v, want payload %+v to 9", last, custom)
	}
}

func TestAccessors(t *testing.T) {
	app := &countingApp{}
	strategy := core.MustRandomized(2, 4)
	n := newTestNode(t, strategy, app, &collectingSender{}, staticPeers{peer: 2, ok: true})
	if n.idx != 1 {
		t.Errorf("ID() = %d, want 1", n.idx)
	}
	if n.slab.strategy != strategy {
		t.Error("the slab does not hold the configured strategy")
	}
	if n.Application() != app {
		t.Error("Application() does not return the configured application")
	}
	if n.Stats().TotalSent() != 0 {
		t.Errorf("TotalSent = %d, want 0", n.Stats().TotalSent())
	}
}

// TestRateLimitInvariantUnderRandomTraffic drives a node with random incoming
// traffic and checks the capacity bound on the balance and the envelope bound
// on the send times, for every bounded strategy.
func TestRateLimitInvariantUnderRandomTraffic(t *testing.T) {
	strategies := []core.Strategy{
		core.MustSimple(10),
		core.MustGeneralized(5, 10),
		core.MustGeneralized(1, 40),
		core.MustRandomized(5, 10),
		core.MustRandomized(1, 20),
	}
	const delta = 1.0
	for _, s := range strategies {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			env := core.NewEnvelope(delta, s.Capacity())
			now := 0.0
			recorder := senderFunc(func(from, to NodeID, payload Payload) { env.Record(now) })
			source := rng.New(987)
			app := &countingApp{useful: true}
			n := newTestNode(t, s, app, recorder, staticPeers{peer: 2, ok: true})
			for round := 0; round < 400; round++ {
				now = float64(round) * delta
				n.Tick()
				app.useful = source.Float64() < 0.7
				for k := source.Intn(5); k > 0; k-- {
					now = float64(round)*delta + source.Float64()*delta
					n.Receive(3, Payload{})
				}
				if n.Tokens() > s.Capacity() {
					t.Fatalf("balance %d exceeds capacity %d", n.Tokens(), s.Capacity())
				}
				if n.Tokens() < 0 {
					t.Fatalf("balance %d is negative", n.Tokens())
				}
			}
			if v := env.Verify(); v != nil {
				t.Errorf("rate limit violated: %v", v)
			}
		})
	}
}

// senderFunc adapts a function to the Sender interface.
type senderFunc func(from, to NodeID, payload Payload)

func (f senderFunc) Send(from, to NodeID, payload Payload) { f(from, to, payload) }
