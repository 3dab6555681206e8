// Package protocol implements the token account protocol node (Algorithm 4
// of the paper) independently of any particular transport or scheduler.
//
// A node combines an application (Application) with a random generator
// embedded in its state row; it lives in a Slab, whose one core.Strategy,
// one peer sampling service (SharedPeerSelector) and one outgoing message
// sink (Sender) serve every node, and its identity is its index in the slab. The
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

// SharedPeerSelector is the peer sampling service (SELECTPEER in the paper)
// of every node of a Slab: SelectPeerOf samples a peer for the node at slab
// index i, drawing from that node's generator r. The ok result is false when
// no suitable (e.g. online) peer exists.
type SharedPeerSelector interface {
	SelectPeerOf(i int, rng Rand) (peer NodeID, ok bool)
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

// Config is what differs between the nodes of one Slab. The strategy, peer
// sampling and the Sender are the slab's (see NewSlab); the random generator
// is embedded in the node's state row (see Slab.InitSeeded); the node's
// identity, passed to the Sender as the source, is its index in the slab.
type Config struct {
	// Application provides CreateMessage/UpdateState (required).
	Application Application
	// InitialTokens is the starting balance (0 in the paper's experiments).
	InitialTokens int
}

func (c Config) validate() error {
	switch {
	case c.Application == nil:
		return errors.New("protocol: Config.Application is nil")
	case c.InitialTokens < 0:
		return fmt.Errorf("protocol: negative initial token count %d", c.InitialTokens)
	}
	return nil
}

// Node is the facade of one protocol node executing Algorithm 4: a slab and
// an index, passed by value. What differs per node lives in the slab at
// that index — the application in a 16-byte row, the account, the counters
// and the state of the node's embedded SplitMix64 generator in its state
// row; the strategy, the Sender and the peer sampler are the slab's. A Node is valid for the lifetime of its slab.
//
// It is not safe for concurrent use; the runtime must serialize Tick and
// Receive calls (the simulator is single-threaded per node, the live runtime
// runs every node on its run loop).
type Node struct {
	slab *Slab
	idx  int
}

// Tokens returns the current account balance.
func (n Node) Tokens() int { return n.state().Account.Balance() }

// Stats returns a snapshot of the node's activity counters.
func (n Node) Stats() Stats { return n.state().Stats() }

// Application returns the node's application instance.
func (n Node) Application() Application { return n.slab.apps[n.idx] }

// state returns the node's row of the slab's state array.
func (n Node) state() *NodeState { return &n.slab.states[n.idx] }

// Tick executes one iteration of the proactive loop of Algorithm 4: with
// probability PROACTIVE(a) the node sends a freshly created message to a
// sampled peer, otherwise it banks the token granted for this period.
func (n Node) Tick() { n.slab.Tick(n.idx) }

// Receive executes the ONMESSAGE handler of Algorithm 4: the application
// updates its state, the reactive function determines the (randomly rounded)
// number of response messages, tokens are spent accordingly and the messages
// are sent to independently sampled peers.
func (n Node) Receive(from NodeID, payload Payload) { n.slab.Receive(n.idx, from, payload) }

// RespondDirect sends one freshly created message straight to the given peer
// if a token is available, spending that token. It returns true if the
// message was sent. This implements the answer to the rejoin pull request of
// the push gossip churn scenario (§4.1.2): "If this neighbor has tokens, a
// message is sent back with the latest update (burning a token). Otherwise,
// no answer is given."
func (n Node) RespondDirect(to NodeID) bool {
	return n.RespondPayload(to, n.Application().CreateMessage())
}

// RespondPayload sends the given payload straight to the peer if a token is
// available, spending that token. It returns true if the message was sent.
// It generalizes RespondDirect for applications whose direct responses are
// not CreateMessage — e.g. blockcast serving a full block in answer to a
// pull — while keeping the response token-gated like every reactive send.
func (n Node) RespondPayload(to NodeID, payload Payload) bool {
	st := n.state()
	if st.Account.SpendUpTo(1) == 0 {
		return false
	}
	n.slab.sender.Send(NodeID(n.idx), to, payload)
	n.slab.count(&st.counts.reactiveSent, 1)
	return true
}
