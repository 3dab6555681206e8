// Package poweriter implements the chaotic asynchronous power iteration
// application of the paper (§2.4, §4.1.3), an instance of the Lubachevsky–
// Mitra framework for computing the dominant eigenvector of a non-negative
// matrix with unit spectral radius.
//
// Each node i holds one element x_i of the eigenvector approximation plus a
// buffer b_ki of the most recently received weighted value from every
// in-neighbour k. The local value is recomputed as x_i = Σ_k A_ik·b_ki and is
// sent to peers, where A is the column-stochastic weighted neighbourhood
// matrix of the overlay graph (A_ik = 1/outdeg(k) for each edge k → i).
package poweriter

import (
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/internal/linalg"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
)

// WeightMessage carries the sender's current value x.
type WeightMessage struct {
	X float64
}

// Payload word-encodes the message: the IEEE-754 bits of x fit in the
// payload word, so the message never needs boxing and the simulator's
// message path stays allocation-free.
func (m WeightMessage) payload() protocol.Payload {
	return protocol.WordPayload(protocol.KindWeight, math.Float64bits(m.X))
}

// weightMessageFromPayload decodes a weight message from its word-encoded
// form, which every runtime and transport delivers unchanged.
func weightMessageFromPayload(p protocol.Payload) (WeightMessage, bool) {
	if p.Kind != protocol.KindWeight {
		return WeightMessage{}, false
	}
	return WeightMessage{X: math.Float64frombits(p.Word)}, true
}

// State is the per-node state of the chaotic iteration. It implements
// protocol.Application.
type State struct {
	self      int
	inNbrs    []int32
	weights   []float64                   // A[self][k] for each in-neighbour k, aligned with inNbrs
	buffer    map[protocol.NodeID]float64 // b_k,self
	value     float64
	recompute bool
}

var _ protocol.Application = (*State)(nil)

// InitialBufferValue is the starting value of every buffered incoming weight
// ("any positive value" per Algorithm 3).
const InitialBufferValue = 1.0

// New returns the chaotic-iteration state of node self over the given graph.
// The weighted neighbourhood matrix assigns weight 1/outdeg(k) to the edge
// k → self; every in-neighbour's buffered value starts at
// InitialBufferValue.
func New(g *overlay.Graph, self int) (*State, error) {
	if g == nil {
		return nil, fmt.Errorf("poweriter: nil graph")
	}
	if self < 0 || self >= g.N() {
		return nil, fmt.Errorf("poweriter: node %d outside [0,%d)", self, g.N())
	}
	in := g.InNeighbors(self)
	s := &State{
		self:    self,
		inNbrs:  in,
		weights: make([]float64, len(in)),
		buffer:  make(map[protocol.NodeID]float64, len(in)),
	}
	for i, k := range in {
		deg := g.OutDegree(int(k))
		if deg == 0 {
			return nil, fmt.Errorf("poweriter: in-neighbour %d of node %d has out-degree 0", k, self)
		}
		s.weights[i] = 1 / float64(deg)
		s.buffer[protocol.NodeID(k)] = InitialBufferValue
	}
	s.refresh()
	return s, nil
}

// refresh recomputes x_i = Σ_k A_ik·b_ki.
func (s *State) refresh() {
	sum := 0.0
	for i, k := range s.inNbrs {
		sum += s.weights[i] * s.buffer[protocol.NodeID(k)]
	}
	s.value = sum
	s.recompute = false
}

// current returns the node's current eigenvector-element approximation,
// recomputing it from the buffers if a fresh weight arrived since the last
// read.
func (s *State) current() float64 {
	if s.recompute {
		s.refresh()
	}
	return s.value
}

// CreateMessage copies the current value, recomputing it from the buffered
// in-neighbour values first (line 4 of Algorithm 3).
func (s *State) CreateMessage() protocol.Payload {
	return WeightMessage{X: s.current()}.payload()
}

// UpdateState implements ONWEIGHT: store the received value in the buffer of
// the sending in-neighbour. The message is useful iff it changes the stored
// value ("usefulness is 1 if and only if the received message causes a change
// in the local state"). Messages from nodes that are not in-neighbours (which
// cannot happen over a fixed overlay) are ignored.
func (s *State) UpdateState(from protocol.NodeID, payload protocol.Payload) bool {
	m, ok := weightMessageFromPayload(payload)
	if !ok {
		return false
	}
	old, known := s.buffer[from]
	if !known {
		return false
	}
	if old == m.X {
		return false
	}
	s.buffer[from] = m.X
	s.recompute = true
	return true
}

// String returns a short description for logs.
func (s *State) String() string { return fmt.Sprintf("poweriter(node=%d,x=%g)", s.self, s.current()) }

// Vector collects the current value of every node into a dense vector.
func vector(states []*State) []float64 {
	v := make([]float64, len(states))
	for i, s := range states {
		v[i] = s.current()
	}
	return v
}

// Reference computes the true dominant eigenvector of the column-stochastic
// neighbourhood matrix of g with the centralized power method. It is the
// ground truth for the convergence metric.
func Reference(g *overlay.Graph, maxIter int, tol float64) ([]float64, error) {
	m, err := linalg.ColumnStochasticFromGraph(g)
	if err != nil {
		return nil, err
	}
	res := linalg.PowerIteration(m, maxIter, tol)
	if !res.Converged {
		return nil, fmt.Errorf("poweriter: reference power iteration did not converge in %d iterations", maxIter)
	}
	return res.Vector, nil
}

// Angle returns the paper's convergence metric: the angle between the current
// decentralized approximation and the reference eigenvector, in radians.
func Angle(states []*State, reference []float64) float64 {
	return linalg.Angle(vector(states), reference)
}
