// Package gossiplearning implements the gossip learning application of the
// paper (§2.2, §4.1.1): machine-learning models perform random walks over the
// network and are updated at every visited node with the local training
// example (stochastic gradient descent).
//
// As in the paper's experiments, the Walker application tracks only the model
// age (the number of nodes the model has visited), because the convergence
// metric — the relative number of visited nodes compared to the ideal
// "hot potato" walk — depends only on the age. A real SGD learner over the
// same communication pattern is provided in sgd.go as an extension and is
// used by the gossip learning example.
package gossiplearning

import (
	"fmt"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// ModelMessage is the payload exchanged by gossip learning nodes: a copy of
// the local model, represented by its age. The real-SGD learner embeds the
// model weights as well.
type ModelMessage struct {
	// Age is the number of nodes the model has visited (the number of SGD
	// updates it has received).
	Age int
	// Weights optionally carries real model parameters (nil for the
	// age-only simulation used in the paper's experiments).
	Weights []float64
}

// Walker is the age-only gossip learning application used by the paper's
// evaluation. It implements protocol.Application. The zero value is a node
// holding a fresh model of age zero.
type Walker struct {
	age int
}

var _ protocol.Application = (*Walker)(nil)

// CreateMessage copies the current model, word-encoded so the simulator's
// message path stays allocation-free (see ModelMessage.Payload).
func (w *Walker) CreateMessage() protocol.Payload { return ModelMessage{Age: w.age}.Payload() }

// UpdateState implements ONMODEL within the framework: if the received model
// is at least as old (has visited at least as many nodes) as the local one,
// it is trained on the local example — its age grows by one — and stored; the
// message was useful. Otherwise the local state is unchanged and the message
// was not useful.
func (w *Walker) UpdateState(_ protocol.NodeID, payload protocol.Payload) bool {
	m, ok := ModelMessageFromPayload(payload)
	if !ok {
		return false
	}
	if w.age > m.Age {
		return false
	}
	w.age = m.Age + 1
	return true
}

// Payload encodes the message compactly: an age-only message (nil Weights,
// the form the paper's experiments exchange) fits in the payload word, so it
// never needs boxing; a message carrying real weights falls back to the
// boxed representation.
func (m ModelMessage) Payload() protocol.Payload {
	if m.Weights == nil {
		return protocol.WordPayload(protocol.KindModelAge, uint64(m.Age))
	}
	return protocol.BoxPayload(m)
}

// ModelMessageFromPayload decodes a model message from either
// representation: the word-encoded age-only form, or the boxed ModelMessage
// that carries real weights (the SGD learner).
func ModelMessageFromPayload(p protocol.Payload) (ModelMessage, bool) {
	switch p.Kind {
	case protocol.KindModelAge:
		return ModelMessage{Age: int(p.Word)}, true
	case protocol.KindBoxed:
		m, ok := p.Box.(ModelMessage)
		return m, ok
	}
	return ModelMessage{}, false
}

// String returns a short description for logs.
func (w *Walker) String() string { return fmt.Sprintf("walker(age=%d)", w.age) }

// Progress is the paper's performance metric (eq. (6)) evaluated over a set
// of walkers at virtual time t: the mean over nodes of n_i(t)/n*(t), where
// n_i(t) is the age of the model at node i and n*(t) = t/transferTime is the
// number of nodes an undelayed ("hot potato") walk would have visited.
// It returns 0 before the first transfer could complete.
func Progress(apps []*Walker, t, transferTime float64) float64 {
	if len(apps) == 0 || t <= 0 || transferTime <= 0 {
		return 0
	}
	ideal := t / transferTime
	if ideal <= 0 {
		return 0
	}
	sum := 0.0
	for _, w := range apps {
		sum += float64(w.age)
	}
	return sum / (float64(len(apps)) * ideal)
}

// ProgressOnline is Progress restricted to the nodes for which online
// reports true, as required in the churn scenario ("only the online nodes
// were considered when computing our performance metrics").
func ProgressOnline(apps []*Walker, online func(i int) bool, t, transferTime float64) float64 {
	if len(apps) == 0 || t <= 0 || transferTime <= 0 {
		return 0
	}
	ideal := t / transferTime
	sum, count := 0.0, 0
	for i, w := range apps {
		if online != nil && !online(i) {
			continue
		}
		sum += float64(w.age)
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / (float64(count) * ideal)
}
