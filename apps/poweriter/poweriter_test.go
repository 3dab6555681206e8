package poweriter

import (
	"math"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
)

// ring returns the directed ring in which node i links to the k nodes that
// follow it.
func ring(n, k int) (*overlay.Graph, error) {
	out := make([][]int, n)
	for i := range out {
		for d := 1; d <= k; d++ {
			out[i] = append(out[i], (i+d)%n)
		}
	}
	return overlay.NewFromOut(out)
}

func TestNewValidation(t *testing.T) {
	g, _ := ring(5, 1)
	if _, err := New(nil, 0); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, -1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := New(g, 5); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestInitialValueFromBuffers(t *testing.T) {
	// ring(4,1): node i has exactly one in-neighbour with out-degree 1, so
	// the initial value is 1·InitialBufferValue.
	g, _ := ring(4, 1)
	s, err := New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.current() != InitialBufferValue {
		t.Errorf("initial value = %v, want %v", s.current(), InitialBufferValue)
	}
	m, ok := weightMessageFromPayload(s.CreateMessage())
	if !ok || m.X != InitialBufferValue {
		t.Errorf("CreateMessage = %#v", m)
	}
}

func TestUpdateStateUsefulness(t *testing.T) {
	g, _ := ring(4, 2) // node 0 has in-neighbours 2 and 3
	s, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	inNbrs := g.InNeighbors(0)
	from := protocol.NodeID(inNbrs[0])
	// Sending the same value as the buffer (1.0) changes nothing: not useful.
	if s.UpdateState(from, WeightMessage{X: InitialBufferValue}.payload()) {
		t.Error("unchanged value reported useful")
	}
	// A different value is useful and changes the local value.
	before := s.current()
	if !s.UpdateState(from, WeightMessage{X: 3}.payload()) {
		t.Error("changed value not reported useful")
	}
	if s.current() == before {
		t.Error("value did not change after buffer update")
	}
	// Messages from non-in-neighbours are ignored.
	if s.UpdateState(protocol.NodeID(1), WeightMessage{X: 5}.payload()) {
		t.Error("message from non-in-neighbour accepted")
	}
	// Foreign payloads are ignored.
	if s.UpdateState(from, protocol.BoxPayload(3.0)) {
		t.Error("foreign payload accepted")
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestValueRecomputation(t *testing.T) {
	// Node 0 in Ring(4,2) has in-neighbours 2 and 3, each with out-degree 2,
	// so x_0 = (b_2 + b_3)/2.
	g, _ := ring(4, 2)
	s, err := New(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := g.InNeighbors(0)
	s.UpdateState(protocol.NodeID(in[0]), WeightMessage{X: 4}.payload())
	s.UpdateState(protocol.NodeID(in[1]), WeightMessage{X: 2}.payload())
	if got := s.current(); math.Abs(got-3) > 1e-12 {
		t.Errorf("Value = %v, want 3", got)
	}
}

func TestReferenceMatchesDegreeVector(t *testing.T) {
	// For the column-stochastic matrix of an undirected graph the dominant
	// eigenvector is proportional to the degree vector.
	g, err := overlay.WattsStrogatz(100, 4, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(g, 200000, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]float64, g.N())
	for i := range deg {
		deg[i] = float64(g.OutDegree(i))
	}
	// Angle between ref and the degree vector should be ~0.
	if angle := angleBetween(ref, deg); angle > 1e-5 {
		t.Errorf("reference eigenvector deviates from degree vector by %v rad", angle)
	}
}

func angleBetween(a, b []float64) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	cos := math.Abs(dot) / math.Sqrt(na*nb)
	if cos > 1 {
		cos = 1
	}
	return math.Acos(cos)
}

func TestReferenceErrorOnSink(t *testing.T) {
	g, _ := overlay.NewFromOut([][]int{{1}, {}})
	if _, err := Reference(g, 100, 1e-6); err == nil {
		t.Error("graph with sink accepted")
	}
}

// TestSynchronousGossipConverges runs the chaotic iteration with a simple
// synchronous schedule (every node broadcasts to all neighbours each round)
// and checks that the decentralized approximation converges to the reference
// eigenvector. This validates the application logic independently of the
// token account machinery.
func TestSynchronousGossipConverges(t *testing.T) {
	g, err := overlay.WattsStrogatz(60, 4, 0.1, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(g, 500000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*State, g.N())
	for i := range states {
		st, err := New(g, i)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	initial := Angle(states, ref)
	for round := 0; round < 400; round++ {
		// Snapshot values, then deliver to every out-neighbour.
		msgs := make([]protocol.Payload, g.N())
		for i, s := range states {
			msgs[i] = s.CreateMessage()
		}
		for i := range states {
			for _, to := range g.OutNeighbors(i) {
				states[to].UpdateState(protocol.NodeID(i), msgs[i])
			}
		}
	}
	final := Angle(states, ref)
	if final >= initial {
		t.Errorf("angle did not decrease: initial %v, final %v", initial, final)
	}
	if final > 0.05 {
		t.Errorf("final angle = %v, want < 0.05 rad", final)
	}
}

// TestAsynchronousRandomGossipConverges exercises the bounded-staleness
// tolerance: nodes send to one random neighbour at a time in random order,
// and the iteration still converges.
func TestAsynchronousRandomGossipConverges(t *testing.T) {
	g, err := overlay.WattsStrogatz(60, 4, 0.1, 13)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(g, 500000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*State, g.N())
	for i := range states {
		st, err := New(g, i)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	src := rng.New(21)
	for step := 0; step < 60*800; step++ {
		i := src.Intn(g.N())
		nbrs := g.OutNeighbors(i)
		to := nbrs[src.Intn(len(nbrs))]
		msg := states[i].CreateMessage()
		states[to].UpdateState(protocol.NodeID(i), msg)
	}
	if final := Angle(states, ref); final > 0.1 {
		t.Errorf("final angle = %v, want < 0.1 rad", final)
	}
}

func TestVectorHelper(t *testing.T) {
	g, _ := ring(5, 1)
	states := make([]*State, 5)
	for i := range states {
		st, err := New(g, i)
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	v := vector(states)
	if len(v) != 5 {
		t.Fatalf("len = %d", len(v))
	}
	for _, x := range v {
		if x != InitialBufferValue {
			t.Errorf("initial vector entry = %v", x)
		}
	}
}

func TestWeightPayloadRoundTrip(t *testing.T) {
	for _, x := range []float64{0, 1, -3.25, 1e-300} {
		m := WeightMessage{X: x}
		got, ok := weightMessageFromPayload(m.payload())
		if !ok || got != m {
			t.Errorf("round trip of %+v = %+v, %v", m, got, ok)
		}
	}
}
