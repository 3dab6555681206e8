package gossiplearning

import (
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/protocol"
)

// Example is one labelled training example held by a node. Labels are ±1.
type Example struct {
	Features []float64
	Label    float64
}

// LogisticModel is a linear model trained by stochastic gradient descent with
// logistic loss, the standard workload of the gossip learning framework the
// paper builds on (Ormándi et al.).
type LogisticModel struct {
	// Weights includes the bias term as the last element.
	Weights []float64
	// Age is the number of SGD updates applied (nodes visited).
	Age int
}

// newLogisticModel returns a zero-initialized model for the given feature
// dimension.
func newLogisticModel(dim int) *LogisticModel {
	return &LogisticModel{Weights: make([]float64, dim+1)}
}

// predict returns the probability that the example has label +1.
func (m *LogisticModel) predict(features []float64) float64 {
	return sigmoid(m.score(features))
}

func (m *LogisticModel) score(features []float64) float64 {
	s := m.Weights[len(m.Weights)-1] // bias
	for i, f := range features {
		s += m.Weights[i] * f
	}
	return s
}

// Update applies one SGD step on the example with learning rate
// eta/sqrt(age+1) (a standard decaying schedule for non-strongly-convex
// objectives) and increments the age.
func (m *LogisticModel) update(ex Example, eta float64) error {
	if len(ex.Features) != len(m.Weights)-1 {
		return fmt.Errorf("gossiplearning: example has %d features, model expects %d", len(ex.Features), len(m.Weights)-1)
	}
	rate := eta / math.Sqrt(float64(m.Age+1))
	// Gradient of the logistic loss with labels in {-1,+1}:
	// dL/dw = -y·x·sigmoid(-y·score).
	g := sigmoid(-ex.Label*m.score(ex.Features)) * ex.Label
	for i, f := range ex.Features {
		m.Weights[i] += rate * g * f
	}
	m.Weights[len(m.Weights)-1] += rate * g
	m.Age++
	return nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Accuracy returns the fraction of examples the model classifies correctly.
func (m *LogisticModel) Accuracy(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range examples {
		p := m.predict(ex.Features)
		if (p >= 0.5 && ex.Label > 0) || (p < 0.5 && ex.Label < 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// SGDLearner is a gossip learning application that trains a real logistic
// regression model while following exactly the same communication pattern as
// Walker. It is used by the gossip learning example and by extension tests;
// the paper's experiments use the age-only Walker.
type SGDLearner struct {
	model   *LogisticModel
	example Example
	eta     float64
}

var _ protocol.Application = (*SGDLearner)(nil)

// NewSGDLearner returns a learner holding one local training example.
func NewSGDLearner(dim int, example Example, eta float64) (*SGDLearner, error) {
	if len(example.Features) != dim {
		return nil, fmt.Errorf("gossiplearning: example dimension %d does not match model dimension %d", len(example.Features), dim)
	}
	if eta <= 0 {
		return nil, fmt.Errorf("gossiplearning: non-positive learning rate %v", eta)
	}
	return &SGDLearner{model: newLogisticModel(dim), example: example, eta: eta}, nil
}

// Model returns the locally stored model.
func (l *SGDLearner) Model() *LogisticModel { return l.model }

// CreateMessage copies the current model into a ModelMessage. Real weights
// do not fit in a payload word, so the SGD learner uses the boxed
// representation (see ModelMessage.Payload).
func (l *SGDLearner) CreateMessage() protocol.Payload {
	return ModelMessage{Age: l.model.Age, Weights: append([]float64(nil), l.model.Weights...)}.Payload()
}

// UpdateState adopts the received model if it is at least as old as the local
// one, trains it on the local example and reports usefulness exactly like
// Walker.
func (l *SGDLearner) UpdateState(_ protocol.NodeID, payload protocol.Payload) bool {
	m, ok := ModelMessageFromPayload(payload)
	if !ok || m.Weights == nil {
		return false
	}
	if l.model.Age > m.Age {
		return false
	}
	adopted := &LogisticModel{Weights: append([]float64(nil), m.Weights...), Age: m.Age}
	if err := adopted.update(l.example, l.eta); err != nil {
		return false
	}
	l.model = adopted
	return true
}

// SyntheticDataset generates a linearly separable two-class dataset with the
// given dimension: a random hyperplane labels points drawn uniformly from
// [-1,1]^dim, with label noise applied at the given rate. It substitutes for
// the proprietary learning tasks used in gossip learning papers.
func SyntheticDataset(n, dim int, noise float64, seed uint64) []Example {
	src := rng.New(rng.Derive(seed, 0x534744)) // "SGD"
	normal := make([]float64, dim)
	for i := range normal {
		normal[i] = src.NormFloat64()
	}
	examples := make([]Example, n)
	for i := range examples {
		features := make([]float64, dim)
		score := 0.0
		for d := range features {
			features[d] = 2*src.Float64() - 1
			score += features[d] * normal[d]
		}
		label := 1.0
		if score < 0 {
			label = -1
		}
		if src.Float64() < noise {
			label = -label
		}
		examples[i] = Example{Features: features, Label: label}
	}
	return examples
}
