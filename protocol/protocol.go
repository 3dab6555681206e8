// Package protocol implements the token account protocol node (Algorithm 4
// of the paper) independently of any particular transport or scheduler.
//
// A Node combines a core.Strategy with an application (Application), a peer
// sampling service (PeerSelector) and an outgoing message sink (Sender). The
// surrounding runtime — a runtime.Host over the discrete-event environment
// in simnet or the wall-clock environment in live — is responsible for
// calling Tick once per proactive period Δ and Receive for every incoming
// message.
package protocol

import (
	"errors"
	"fmt"

	"github.com/szte-dcs/tokenaccount/core"
)

// NodeID identifies a node in the network. IDs are dense integers in the
// simulator; the live runtime maps them to transport addresses.
type NodeID int

// NoNode is returned by peer selectors when no peer is available.
const NoNode NodeID = -1

// Rand is the source of randomness a Node needs: uniform floats for the
// probabilistic decisions of Algorithm 4 and bounded integers for peer
// selection. Both *math/rand.Rand and *rng.Source satisfy it.
type Rand interface {
	core.Rand
	Intn(n int) int
}

// Application is the application-specific part of the framework (§3.2). The
// three demonstrator applications of the paper — gossip learning, push gossip
// and chaotic power iteration — implement it in apps/ with word-encoded
// payloads; custom applications may simply wrap their message values with
// BoxPayload and type-assert Payload.Box on receipt.
type Application interface {
	// CreateMessage builds the payload of an outgoing message from the
	// current local state (a copy of the state in all paper applications).
	CreateMessage() Payload

	// UpdateState incorporates an incoming payload into the local state and
	// reports whether the message was useful, as defined by the application
	// (fresher model, newer update, changed value, ...).
	UpdateState(from NodeID, payload Payload) (useful bool)
}

// PeerSelector is the peer sampling service (SELECTPEER in the paper). The ok
// result is false when no suitable (e.g. online) peer exists.
type PeerSelector interface {
	SelectPeer(rng Rand) (peer NodeID, ok bool)
}

// Sender delivers an outgoing payload to a peer. Implementations may drop the
// message (offline peer, failure injection); the protocol does not expect
// acknowledgements.
type Sender interface {
	Send(from, to NodeID, payload Payload)
}

// Stats counts the externally observable activity of a node. Counters only
// ever increase.
type Stats struct {
	// ProactiveSent is the number of messages sent from the periodic loop.
	ProactiveSent int
	// ReactiveSent is the number of messages sent in reaction to received
	// messages.
	ReactiveSent int
	// Received is the number of messages received.
	Received int
	// UsefulReceived is the number of received messages the application
	// classified as useful.
	UsefulReceived int
	// TokensBanked is the number of rounds in which the token was saved
	// instead of being spent on a proactive message.
	TokensBanked int
	// Rounds is the number of proactive rounds executed (Tick calls).
	Rounds int
}

// TotalSent returns the total number of messages sent by the node.
func (s Stats) TotalSent() int { return s.ProactiveSent + s.ReactiveSent }

// Config assembles the collaborators of a Node.
type Config struct {
	// ID is the node's identity, passed to the Sender as the source.
	ID NodeID
	// Strategy is the token account strategy (required).
	Strategy core.Strategy
	// Application provides CreateMessage/UpdateState (required).
	Application Application
	// Peers is the peer sampling service (required).
	Peers PeerSelector
	// Sender delivers outgoing messages (required).
	Sender Sender
	// RNG is the node's private randomness source (required).
	RNG Rand
	// InitialTokens is the starting balance (0 in the paper's experiments).
	InitialTokens int
}

func (c Config) validate() error {
	switch {
	case c.Strategy == nil:
		return errors.New("protocol: Config.Strategy is nil")
	case c.Application == nil:
		return errors.New("protocol: Config.Application is nil")
	case c.Peers == nil:
		return errors.New("protocol: Config.Peers is nil")
	case c.Sender == nil:
		return errors.New("protocol: Config.Sender is nil")
	case c.RNG == nil:
		return errors.New("protocol: Config.RNG is nil")
	case c.InitialTokens < 0:
		return fmt.Errorf("protocol: negative initial token count %d", c.InitialTokens)
	}
	return nil
}

// Node executes Algorithm 4. It is not safe for concurrent use; the runtime
// must serialize Tick and Receive calls (the simulator is single-threaded per
// node, the live service uses one goroutine per node).
type Node struct {
	id       NodeID
	strategy core.Strategy
	app      Application
	peers    PeerSelector
	sender   Sender
	rng      Rand
	state    *NodeState
}

// NewNode validates the configuration and returns a ready-to-run node with
// privately allocated state. Runtimes that build many nodes at once should
// use a Slab instead, which backs all node state with two contiguous arrays.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	st := &NodeState{Account: core.MakeAccount(cfg.InitialTokens, core.AllowsOverspend(cfg.Strategy))}
	n := makeNode(cfg, st)
	return &n, nil
}

// makeNode assembles a Node value over already-initialized state.
func makeNode(cfg Config, st *NodeState) Node {
	return Node{
		id:       cfg.ID,
		strategy: cfg.Strategy,
		app:      cfg.Application,
		peers:    cfg.Peers,
		sender:   cfg.Sender,
		rng:      cfg.RNG,
		state:    st,
	}
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.id }

// Tokens returns the current account balance.
func (n *Node) Tokens() int { return n.state.Account.Balance() }

// Stats returns a snapshot of the node's activity counters.
func (n *Node) Stats() Stats { return n.state.Stats }

// Strategy returns the node's token account strategy.
func (n *Node) Strategy() core.Strategy { return n.strategy }

// Application returns the node's application instance.
func (n *Node) Application() Application { return n.app }

// Tick executes one iteration of the proactive loop of Algorithm 4: with
// probability PROACTIVE(a) the node sends a freshly created message to a
// sampled peer, otherwise it banks the token granted for this period.
func (n *Node) Tick() {
	n.state.Stats.Rounds++
	if core.Bernoulli(n.strategy.Proactive(n.state.Account.Balance()), n.rng) {
		if n.sendOne() {
			n.state.Stats.ProactiveSent++
			return
		}
		// No peer was available: the round's token would otherwise be lost
		// to a message that cannot be sent, so bank it instead. This keeps
		// the node's long-run budget intact under churn.
	}
	n.state.Account.Deposit(1)
	n.state.Stats.TokensBanked++
}

// Receive executes the ONMESSAGE handler of Algorithm 4: the application
// updates its state, the reactive function determines the (randomly rounded)
// number of response messages, tokens are spent accordingly and the messages
// are sent to independently sampled peers.
func (n *Node) Receive(from NodeID, payload Payload) {
	n.state.Stats.Received++
	useful := n.app.UpdateState(from, payload)
	if useful {
		n.state.Stats.UsefulReceived++
	}
	want := core.RandRound(n.strategy.Reactive(n.state.Account.Balance(), useful), n.rng)
	spend := n.state.Account.SpendUpTo(want)
	for i := 0; i < spend; i++ {
		if !n.sendOne() {
			// No reachable peer: refund the unused tokens.
			n.state.Account.Deposit(spend - i)
			n.state.Stats.TokensBanked += spend - i
			return
		}
		n.state.Stats.ReactiveSent++
	}
}

// RespondDirect sends one freshly created message straight to the given peer
// if a token is available, spending that token. It returns true if the
// message was sent. This implements the answer to the rejoin pull request of
// the push gossip churn scenario (§4.1.2): "If this neighbor has tokens, a
// message is sent back with the latest update (burning a token). Otherwise,
// no answer is given."
func (n *Node) RespondDirect(to NodeID) bool {
	return n.RespondPayload(to, n.app.CreateMessage())
}

// RespondPayload sends the given payload straight to the peer if a token is
// available, spending that token. It returns true if the message was sent.
// It generalizes RespondDirect for applications whose direct responses are
// not CreateMessage — e.g. blockcast serving a full block in answer to a
// pull — while keeping the response token-gated like every reactive send.
func (n *Node) RespondPayload(to NodeID, payload Payload) bool {
	if n.state.Account.SpendUpTo(1) == 0 {
		return false
	}
	n.sender.Send(n.id, to, payload)
	n.state.Stats.ReactiveSent++
	return true
}

// sendOne samples a peer and sends one freshly created message to it. It
// reports whether a peer was available.
func (n *Node) sendOne() bool {
	peer, ok := n.peers.SelectPeer(n.rng)
	if !ok {
		return false
	}
	n.sender.Send(n.id, peer, n.app.CreateMessage())
	return true
}
