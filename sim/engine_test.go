package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed() = %d, want 3", e.Processed())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events ran out of scheduling order: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() { times = append(times, e.Now()) })
	})
	e.run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestNegativeDelayRunsNow(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5, func() {
		e.Schedule(-10, func() { ran = true })
		if e.Pending() != 1 {
			t.Errorf("Pending = %d, want 1", e.Pending())
		}
	})
	e.run()
	if !ran {
		t.Error("event with negative delay never ran")
	}
	if e.Now() != 5 {
		t.Errorf("Now() = %v, want 5 (negative delay clamps to now)", e.Now())
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.Schedule(10, func() {
		e.At(3, func() { at = e.Now() })
	})
	e.run()
	if at != 10 {
		t.Errorf("past-scheduled event ran at %v, want 10", at)
	}
}

func TestRunUntilAdvancesTime(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(0.5, 1.0, func() bool { count++; return true })
	e.RunUntil(10)
	// Ticks at 0.5, 1.5, ..., 9.5.
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v, want 10", e.Now())
	}
	e.RunUntil(20)
	if count != 20 {
		t.Errorf("count after second horizon = %d, want 20", count)
	}
}

func TestEveryStopsWhenCallbackReturnsFalse(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(0, 1, func() bool {
		count++
		return count < 5
	})
	e.run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step() on empty queue returned true")
	}
}

func TestPanicsOnBadArguments(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	assertPanics("Schedule nil", func() { e.Schedule(1, nil) })
	assertPanics("At nil", func() { e.At(1, nil) })
	assertPanics("Every nil", func() { e.Every(0, 1, nil) })
	assertPanics("Every zero interval", func() { e.Every(0, 0, func() bool { return false }) })
}

func TestQuickEventsRunInTimeOrder(t *testing.T) {
	f := func(delays []float64) bool {
		e := NewEngine()
		var executed []float64
		for _, d := range delays {
			if d < 0 {
				d = -d
			}
			if d > 1e9 {
				d = 1e9
			}
			e.Schedule(d, func() { executed = append(executed, e.Now()) })
		}
		e.run()
		return sort.Float64sAreSorted(executed) && len(executed) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%17), func() {})
		}
		e.run()
	}
}

// TestZeroValueEngine guards the zero value's usability: sim.Engine{} must
// schedule and run events exactly like NewEngine() (the heap is held by
// value, so an empty one is ready to use).
func TestZeroValueEngine(t *testing.T) {
	var e Engine
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d on zero-value engine", e.Pending())
	}
	var got []int
	e.Schedule(2, func() { got = append(got, 2) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("events ran as %v", got)
	}
}

// recordingSink collects delivered events together with the engine time at
// delivery.
type recordingSink struct {
	e   *Engine
	got []Delivery
	at  []float64
}

func (s *recordingSink) Deliver(d Delivery) {
	s.got = append(s.got, d)
	s.at = append(s.at, s.e.Now())
}

// TestScheduleDelivery checks the typed delivery path: the event fires at
// now+delay with virtual time advanced, the Delivery struct round-trips
// unchanged, and deliveries interleave with closure events in strict
// (time, seq) order.
func TestScheduleDelivery(t *testing.T) {
	e := NewEngine()
	sink := &recordingSink{e: e}
	var order []string
	e.Schedule(1, func() { order = append(order, "fn@1") })
	e.ScheduleDelivery(1, Delivery{From: 3, To: 4, Kind: 2, Word: 77, Box: "x"}, sink)
	e.Schedule(0.5, func() { order = append(order, "fn@0.5") })
	e.ScheduleDelivery(2, Delivery{From: 5, To: 6, Word: 88}, sink)
	e.run()
	if len(sink.got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(sink.got))
	}
	if d := sink.got[0]; d.From != 3 || d.To != 4 || d.Kind != 2 || d.Word != 77 || d.Box != "x" {
		t.Errorf("first delivery = %+v", d)
	}
	if sink.at[0] != 1 || sink.at[1] != 2 {
		t.Errorf("delivery times = %v, want [1 2]", sink.at)
	}
	// The closure at t=1 was scheduled before the delivery at t=1, so it
	// runs first (seq tie-break); both run after the t=0.5 closure.
	if len(order) != 2 || order[0] != "fn@0.5" || order[1] != "fn@1" {
		t.Errorf("closure order = %v", order)
	}
	if e.Processed() != 4 {
		t.Errorf("processed = %d, want 4", e.Processed())
	}
}

// TestScheduleDeliveryNegativeDelay mirrors Schedule's clamping: a negative
// or NaN delay delivers at the current time.
func TestScheduleDeliveryNegativeDelay(t *testing.T) {
	e := NewEngine()
	sink := &recordingSink{e: e}
	e.Schedule(5, func() {
		e.ScheduleDelivery(-1, Delivery{Word: 1}, sink)
		e.ScheduleDelivery(math.NaN(), Delivery{Word: 2}, sink)
	})
	e.run()
	if len(sink.at) != 2 || sink.at[0] != 5 || sink.at[1] != 5 {
		t.Errorf("delivery times = %v, want [5 5]", sink.at)
	}
}

// TestScheduleDeliveryNilSinkPanics mirrors the nil-callback panics.
func TestScheduleDeliveryNilSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ScheduleDelivery(nil sink) did not panic")
		}
	}()
	NewEngine().ScheduleDelivery(1, Delivery{}, nil)
}

// TestScheduleDeliveryAllocs guards the zero-allocation claim at the engine
// level: scheduling and executing a word-encoded delivery allocates nothing
// once its delivery lane has grown.
func TestScheduleDeliveryAllocs(t *testing.T) {
	e := NewEngine()
	sink := &recordingSink{e: e}
	e.ScheduleDelivery(1, Delivery{Word: 1}, sink)
	e.run()
	sink.got, sink.at = sink.got[:0], sink.at[:0]
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleDelivery(1, Delivery{From: 1, To: 2, Kind: 3, Word: 4}, sink)
		e.Step()
		sink.got, sink.at = sink.got[:0], sink.at[:0]
	})
	if allocs != 0 {
		t.Errorf("ScheduleDelivery+Step allocates %.1f, want 0", allocs)
	}
	if e.ndl != 1 {
		t.Errorf("%d delivery lanes open, want the fixed delay's one", e.ndl)
	}
}

// run executes events until nothing is pending, leaving the clock at the
// last event's time.
func (e *Engine) run() {
	for {
		l, dl, _, ok := e.next()
		if !ok {
			return
		}
		e.step(l, dl)
	}
}
