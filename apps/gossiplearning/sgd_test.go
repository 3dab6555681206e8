package gossiplearning

import (
	"math"
	"testing"

	"github.com/szte-dcs/tokenaccount/protocol"
)

func TestLogisticModelUpdateValidation(t *testing.T) {
	m := newLogisticModel(3)
	if err := m.update(Example{Features: []float64{1, 2}, Label: 1}, 0.1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := m.update(Example{Features: []float64{1, 2, 3}, Label: 1}, 0.1); err != nil {
		t.Errorf("valid update rejected: %v", err)
	}
	if m.Age != 1 {
		t.Errorf("age = %d, want 1", m.Age)
	}
}

func TestLogisticModelLearnsSeparableData(t *testing.T) {
	const dim = 5
	data := SyntheticDataset(2000, dim, 0, 42)
	m := newLogisticModel(dim)
	for epoch := 0; epoch < 5; epoch++ {
		for _, ex := range data {
			if err := m.update(ex, 1.0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if acc := m.Accuracy(data); acc < 0.95 {
		t.Errorf("training accuracy = %v, want ≥ 0.95 on separable data", acc)
	}
}

func TestPredictRange(t *testing.T) {
	m := newLogisticModel(2)
	m.Weights = []float64{10, -10, 0}
	p := m.predict([]float64{1, 0})
	if p <= 0.5 || p > 1 {
		t.Errorf("Predict = %v, want in (0.5, 1]", p)
	}
	q := m.predict([]float64{0, 1})
	if q >= 0.5 || q < 0 {
		t.Errorf("Predict = %v, want in [0, 0.5)", q)
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if newLogisticModel(2).Accuracy(nil) != 0 {
		t.Error("Accuracy(nil) != 0")
	}
}

func TestSyntheticDatasetProperties(t *testing.T) {
	data := SyntheticDataset(500, 4, 0, 7)
	if len(data) != 500 {
		t.Fatalf("len = %d", len(data))
	}
	pos, neg := 0, 0
	for _, ex := range data {
		if len(ex.Features) != 4 {
			t.Fatalf("feature dim = %d", len(ex.Features))
		}
		switch ex.Label {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label = %v", ex.Label)
		}
		for _, f := range ex.Features {
			if f < -1 || f > 1 {
				t.Fatalf("feature %v out of [-1,1]", f)
			}
		}
	}
	// Both classes must be represented (the hyperplane passes through the
	// origin of a symmetric distribution).
	if pos < 100 || neg < 100 {
		t.Errorf("class balance pos=%d neg=%d looks degenerate", pos, neg)
	}
	// Determinism.
	again := SyntheticDataset(500, 4, 0, 7)
	for i := range data {
		if data[i].Label != again[i].Label {
			t.Fatal("dataset generation is not deterministic")
		}
	}
}

func TestNewSGDLearnerValidation(t *testing.T) {
	if _, err := NewSGDLearner(3, Example{Features: []float64{1}, Label: 1}, 0.1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewSGDLearner(1, Example{Features: []float64{1}, Label: 1}, 0); err == nil {
		t.Error("zero learning rate accepted")
	}
}

func TestSGDLearnerFollowsWalkerSemantics(t *testing.T) {
	data := SyntheticDataset(2, 3, 0, 1)
	a, err := NewSGDLearner(3, data[0], 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSGDLearner(3, data[1], 1.0)
	if err != nil {
		t.Fatal(err)
	}
	msg, ok := ModelMessageFromPayload(a.CreateMessage())
	if !ok {
		t.Fatal("CreateMessage did not decode as ModelMessage")
	}
	if msg.Age != 0 || msg.Weights == nil {
		t.Fatalf("CreateMessage = %+v", msg)
	}
	if !b.UpdateState(0, msg.Payload()) {
		t.Error("fresh model should be useful")
	}
	if b.Model().Age != 1 {
		t.Errorf("age = %d, want 1", b.Model().Age)
	}
	// A stale model (lower age) is rejected.
	if b.UpdateState(0, ModelMessage{Age: 0, Weights: make([]float64, 4)}.Payload()) {
		t.Error("stale model should not be useful")
	}
	// Foreign payloads and age-only messages are rejected.
	if b.UpdateState(0, ModelMessage{Age: 10}.Payload()) {
		t.Error("weightless message should not be useful for the SGD learner")
	}
	if b.UpdateState(0, protocol.BoxPayload(42)) {
		t.Error("foreign payload accepted")
	}
}

func TestSGDWalkLearns(t *testing.T) {
	// A model walking over nodes holding one example each should reach good
	// accuracy on the union of the data, mirroring gossip learning.
	const dim = 4
	data := SyntheticDataset(300, dim, 0, 3)
	learners := make([]*SGDLearner, len(data))
	for i, ex := range data {
		l, err := NewSGDLearner(dim, ex, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		learners[i] = l
	}
	// Deterministic walk: visit nodes round-robin for a few passes.
	walk := learners[0].CreateMessage()
	for pass := 0; pass < 6; pass++ {
		for _, l := range learners {
			l.UpdateState(0, walk)
			walk = l.CreateMessage()
		}
	}
	msg, ok := ModelMessageFromPayload(walk)
	if !ok {
		t.Fatal("walk message did not decode as ModelMessage")
	}
	final := &LogisticModel{Weights: msg.Weights, Age: msg.Age}
	if acc := final.Accuracy(data); acc < 0.9 {
		t.Errorf("walked model accuracy = %v, want ≥ 0.9", acc)
	}
	if final.Age != 6*len(data) {
		t.Errorf("final age = %d, want %d", final.Age, 6*len(data))
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", s)
	}
	if s := sigmoid(100); s < 0.999 {
		t.Errorf("sigmoid(100) = %v", s)
	}
}
