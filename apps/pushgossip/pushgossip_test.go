package pushgossip

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/szte-dcs/tokenaccount/protocol"
)

func TestUpdateStateFreshness(t *testing.T) {
	s := New()
	if s.Seq() != NoUpdate {
		t.Fatalf("initial seq = %d", s.Seq())
	}
	if !s.UpdateState(1, Update{Seq: 5}.Payload()) {
		t.Error("first update should be useful")
	}
	if s.Seq() != 5 {
		t.Errorf("seq = %d, want 5", s.Seq())
	}
	if s.UpdateState(1, Update{Seq: 5}.Payload()) {
		t.Error("duplicate update should not be useful")
	}
	if s.UpdateState(1, Update{Seq: 3}.Payload()) {
		t.Error("older update should not be useful")
	}
	if s.Seq() != 5 {
		t.Errorf("seq changed on stale update: %d", s.Seq())
	}
	if !s.UpdateState(1, Update{Seq: 9}.Payload()) {
		t.Error("fresher update should be useful")
	}
	if s.UpdateState(1, protocol.BoxPayload("garbage")) {
		t.Error("foreign payload reported useful")
	}
}

func TestInject(t *testing.T) {
	s := New()
	s.Inject(3)
	if s.Seq() != 3 {
		t.Errorf("seq = %d, want 3", s.Seq())
	}
	s.Inject(1) // older injection ignored
	if s.Seq() != 3 {
		t.Errorf("seq = %d, want 3", s.Seq())
	}
	m, ok := updateFromPayload(s.CreateMessage())
	if !ok || m.Seq != 3 {
		t.Errorf("CreateMessage = %#v", m)
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestLag(t *testing.T) {
	states := []State{{seq: 10}, {seq: 8}, {seq: NoUpdate}}
	// latest = 10: lags are 0, 2, 11 => mean 13/3.
	if got := Lag(states, 10); math.Abs(got-13.0/3) > 1e-12 {
		t.Errorf("Lag = %v, want %v", got, 13.0/3)
	}
	if Lag(states, -1) != 0 {
		t.Error("Lag before any injection should be 0")
	}
	if Lag(nil, 5) != 0 {
		t.Error("Lag of empty slice should be 0")
	}
}

func TestLagOnline(t *testing.T) {
	states := []State{{seq: 10}, {seq: 0}, {seq: 4}}
	online := func(i int) bool { return i != 1 }
	// Nodes 0 and 2: lags 0 and 6 => 3.
	if got := LagOnline(states, online, 10); got != 3 {
		t.Errorf("LagOnline = %v, want 3", got)
	}
	if got := LagOnline(states, func(int) bool { return false }, 10); got != 0 {
		t.Errorf("LagOnline with everyone offline = %v, want 0", got)
	}
}

func TestQuickSeqIsMonotone(t *testing.T) {
	f := func(updates []int64) bool {
		s := New()
		prev := s.Seq()
		for _, u := range updates {
			s.UpdateState(0, Update{Seq: u}.Payload())
			if s.Seq() < prev {
				return false
			}
			prev = s.Seq()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickUsefulIffFresher(t *testing.T) {
	f := func(current, incoming int64) bool {
		s := &State{seq: current}
		useful := s.UpdateState(0, Update{Seq: incoming}.Payload())
		return useful == (incoming > current)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	// Seq may be negative (NoUpdate): the two's-complement word must round-trip.
	for _, seq := range []int64{NoUpdate, 0, 7, 1 << 40} {
		u := Update{Seq: seq}
		got, ok := updateFromPayload(u.Payload())
		if !ok || got != u {
			t.Errorf("round trip of %+v = %+v, %v", u, got, ok)
		}
	}
	// No transport boxes an update, so a boxed payload is foreign.
	if _, ok := updateFromPayload(protocol.BoxPayload(Update{Seq: 3})); ok {
		t.Error("boxed payload decoded")
	}
}
