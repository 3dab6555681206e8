package gossiplearning

import (
	"math"
	"testing"

	"github.com/szte-dcs/tokenaccount/protocol"
)

func TestWalkerUsefulness(t *testing.T) {
	w := &Walker{}
	if w.age != 0 {
		t.Fatalf("initial age = %d", w.age)
	}
	// Equal age is useful: the received model gets trained and adopted.
	if !w.UpdateState(1, ModelMessage{Age: 0}.Payload()) {
		t.Error("equal-age model should be useful")
	}
	if w.age != 1 {
		t.Errorf("age after update = %d, want 1", w.age)
	}
	// Older (smaller age) received model is not useful and leaves state.
	if w.UpdateState(2, ModelMessage{Age: 0}.Payload()) {
		t.Error("stale model should not be useful")
	}
	if w.age != 1 {
		t.Errorf("age changed on stale model: %d", w.age)
	}
	// Fresher model is adopted with age+1.
	if !w.UpdateState(3, ModelMessage{Age: 10}.Payload()) {
		t.Error("fresher model should be useful")
	}
	if w.age != 11 {
		t.Errorf("age = %d, want 11", w.age)
	}
}

func TestWalkerIgnoresForeignPayloads(t *testing.T) {
	w := &Walker{}
	if w.UpdateState(1, protocol.BoxPayload("not a model")) {
		t.Error("foreign payload reported useful")
	}
	if w.age != 0 {
		t.Error("foreign payload changed state")
	}
}

func TestWalkerCreateMessage(t *testing.T) {
	w := &Walker{}
	w.UpdateState(1, ModelMessage{Age: 4}.Payload())
	m, ok := ModelMessageFromPayload(w.CreateMessage())
	if !ok || m.Age != 5 {
		t.Errorf("CreateMessage = %#v, want age 5", m)
	}
	if w.String() == "" {
		t.Error("String() empty")
	}
}

func TestProgressMetric(t *testing.T) {
	apps := []*Walker{{age: 10}, {age: 20}, {age: 30}}
	// n*(t) = t / transfer = 100/1 = 100; mean age 20 => 0.2.
	if got := Progress(apps, 100, 1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Progress = %v, want 0.2", got)
	}
	if Progress(apps, 0, 1) != 0 || Progress(nil, 10, 1) != 0 || Progress(apps, 10, 0) != 0 {
		t.Error("degenerate Progress inputs should return 0")
	}
}

func TestProgressOnline(t *testing.T) {
	apps := []*Walker{{age: 10}, {age: 100}, {age: 30}}
	online := func(i int) bool { return i != 1 }
	// Only nodes 0 and 2 count: mean age 20, ideal 100 => 0.2.
	if got := ProgressOnline(apps, online, 100, 1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("ProgressOnline = %v, want 0.2", got)
	}
	if got := ProgressOnline(apps, func(int) bool { return false }, 100, 1); got != 0 {
		t.Errorf("ProgressOnline with everyone offline = %v, want 0", got)
	}
	if got := ProgressOnline(apps, nil, 100, 1); math.Abs(got-float64(10+100+30)/3/100) > 1e-12 {
		t.Errorf("ProgressOnline(nil) = %v", got)
	}
}

func TestWalkerChainModelsIdealWalk(t *testing.T) {
	// A chain of nodes passing the model hot-potato style: after k hops the
	// age equals k, i.e. the walk visits exactly one node per hop.
	const hops = 50
	nodes := make([]*Walker, hops+1)
	for i := range nodes {
		nodes[i] = &Walker{}
	}
	for i := 0; i < hops; i++ {
		msg := nodes[i].CreateMessage()
		if !nodes[i+1].UpdateState(0, msg) {
			t.Fatalf("hop %d was not useful", i)
		}
	}
	if nodes[hops].age != hops {
		t.Errorf("final age = %d, want %d", nodes[hops].age, hops)
	}
}

func TestModelPayloadRoundTrip(t *testing.T) {
	// Age-only messages use the word encoding.
	m := ModelMessage{Age: 9}
	if p := m.Payload(); p.Kind != protocol.KindModelAge {
		t.Errorf("age-only payload kind = %v", p.Kind)
	}
	if got, ok := ModelMessageFromPayload(m.Payload()); !ok || got.Age != 9 || got.Weights != nil {
		t.Errorf("round trip = %+v, %v", got, ok)
	}
	// Messages with real weights (the SGD learner) fall back to boxing.
	w := ModelMessage{Age: 2, Weights: []float64{1, 2}}
	if p := w.Payload(); p.Kind != protocol.KindBoxed {
		t.Errorf("weighted payload kind = %v", p.Kind)
	}
	if got, ok := ModelMessageFromPayload(w.Payload()); !ok || got.Age != 2 || len(got.Weights) != 2 {
		t.Errorf("weighted round trip = %+v, %v", got, ok)
	}
}
