// Package pushgossip implements the push gossip broadcast application of the
// paper (§2.3, §4.1.2): every node stores the freshest update it has seen and
// pushes it to peers; new updates are injected into the network at a constant
// rate, and the performance metric is the average lag, over online nodes,
// behind the globally freshest update.
package pushgossip

import (
	"fmt"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// Update is the payload gossiped through the network. Seq is a monotonically
// increasing sequence number playing the role of the timestamp in the paper:
// a higher sequence number means a fresher update.
type Update struct {
	Seq int64
}

// NoUpdate is the sequence value of a node that has not seen any update yet.
const NoUpdate int64 = -1

// State is the push gossip application state: the freshest update known by
// the node. It implements protocol.Application.
type State struct {
	seq int64
}

var _ protocol.Application = (*State)(nil)

// New returns a node state that has not seen any update yet.
func New() *State { return &State{seq: NoUpdate} }

// NewStates returns a slab of n states, each initialized like New. Runs over
// many nodes use it to hold all application state in one allocation.
func NewStates(n int) []State {
	states := make([]State, n)
	for i := range states {
		states[i].seq = NoUpdate
	}
	return states
}

// Seq returns the sequence number of the freshest update known by the node
// (NoUpdate if none).
func (s *State) Seq() int64 { return s.seq }

// Inject stores a locally injected update, as performed by the update source
// of the experiment ("new updates are regularly injected into random online
// nodes"). Older injections than the currently known update are ignored.
func (s *State) Inject(seq int64) {
	if seq > s.seq {
		s.seq = seq
	}
}

// CreateMessage copies the freshest known update, word-encoded so the
// simulator's message path stays allocation-free (see Update.Payload).
func (s *State) CreateMessage() protocol.Payload { return Update{Seq: s.seq}.Payload() }

// UpdateState adopts the received update if it is fresher than the known one
// and reports usefulness accordingly ("usefulness is 1 if and only if the
// received message contains a newer update than the locally stored update").
func (s *State) UpdateState(_ protocol.NodeID, payload protocol.Payload) bool {
	u, ok := updateFromPayload(payload)
	if !ok {
		return false
	}
	if u.Seq <= s.seq {
		return false
	}
	s.seq = u.Seq
	return true
}

// Payload word-encodes the update: the sequence number's two's-complement
// bits fit in the payload word (Seq may be -1 for "no update yet"), so the
// message never needs boxing.
func (u Update) Payload() protocol.Payload {
	return protocol.WordPayload(protocol.KindUpdateSeq, uint64(u.Seq))
}

// updateFromPayload decodes an update from its word-encoded form, which every
// runtime and transport delivers unchanged.
func updateFromPayload(p protocol.Payload) (Update, bool) {
	if p.Kind != protocol.KindUpdateSeq {
		return Update{}, false
	}
	return Update{Seq: int64(p.Word)}, true
}

// String returns a short description for logs.
func (s *State) String() string { return fmt.Sprintf("pushgossip(seq=%d)", s.seq) }

// Lag is the paper's performance metric (eq. (7)): the average over the
// considered nodes of the difference between the freshest globally injected
// sequence number and the node's local sequence number. Nodes that have not
// seen any update count as lagging behind the full injected history
// (local sequence −1, i.e. a lag of latest+1), which matches the metric's
// behaviour at the start of an experiment.
func Lag(states []State, latest int64) float64 {
	return LagOnline(states, nil, latest)
}

// LagOnline is Lag restricted to the nodes for which online reports true (the
// churn scenario only considers online nodes). It returns 0 when no node is
// online or no update has been injected yet.
func LagOnline(states []State, online func(i int) bool, latest int64) float64 {
	if latest < 0 || len(states) == 0 {
		return 0
	}
	sum, count := 0.0, 0
	for i := range states {
		if online != nil && !online(i) {
			continue
		}
		sum += float64(latest - states[i].seq)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
