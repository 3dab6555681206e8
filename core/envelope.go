package core

import "fmt"

// Envelope verifies the rate-limiting guarantee of §3.4: a node using a
// strategy with token capacity C and proactive period Δ can send at most
// ceil(t/Δ) + C messages within any time window of length t.
//
// Record every send time (in the same time unit as Delta, in non-decreasing
// order) and call Verify. The check is incremental and its state is constant
// size — a leaky bucket that every send fills by Δ and that drains with time
// — so an envelope can audit a node for as long as the node runs. Envelope is
// not safe for concurrent use; wrap it in a mutex if needed.
//
// Why one number suffices: with g_i = t_i − i·Δ, the closed-window bound
// j−i+1 ≤ floor((t_j−t_i)/Δ) + 1 + C for all i ≤ j is equivalent to
// max_{i≤j} g_i − g_j ≤ C·Δ, and that excess is exactly the bucket level
// level_j = max(0, level_{j−1} + Δ − (t_j − t_{j−1})). The recurrence only
// ever subtracts adjacent send times, so it does not lose precision as the
// run time grows.
//
// Tie rule: a window whose length is within envelopeTie·Δ of a multiple k·Δ
// counts as k·Δ long, i.e. it may hold k+1+C sends. Sends exactly Δ apart are
// the compliant limit case (a purely proactive node on the simulator's tick
// grid), but repeated float addition leaves such gaps a few ulps off Δ, and
// whether floor((t_j−t_i)/Δ) then reads k or k−1 is rounding luck; the
// tolerance decides those ties in the sender's favour and is far below any
// real early send.
type Envelope struct {
	// Delta is the proactive period Δ.
	Delta float64
	// Capacity is the token capacity C of the strategy.
	Capacity int

	count int
	last  float64 // time of the latest send
	level float64 // max_{i≤j} g_i − g_j after the latest send j
	// startTime and startIndex identify the send i attaining the maximum:
	// the start of the tightest window ending at the latest send.
	startTime  float64
	startIndex int
	violation  *Violation // the first one seen
}

// envelopeTie is the tolerance of the tie rule, as a fraction of Δ.
const envelopeTie = 1e-9

// NewEnvelope returns an envelope checker for a strategy with the given
// period and capacity. It panics if delta is not positive or the capacity is
// negative (use it only with bounded strategies).
func NewEnvelope(delta float64, capacity int) *Envelope {
	if delta <= 0 {
		panic(fmt.Sprintf("core: NewEnvelope: non-positive delta %v", delta))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("core: NewEnvelope: negative capacity %d", capacity))
	}
	return &Envelope{Delta: delta, Capacity: capacity}
}

// Record notes that a message was sent at time t. Times must not decrease; a
// time earlier than the previous one is treated as equal to it.
func (e *Envelope) Record(t float64) {
	j := e.count
	e.count++
	if j > 0 {
		if t < e.last {
			t = e.last
		}
		e.level += e.Delta - (t - e.last)
	}
	e.last = t
	if e.level <= 0 {
		e.level, e.startTime, e.startIndex = 0, t, j
		return
	}
	if e.violation == nil && e.level > (float64(e.Capacity)+envelopeTie)*e.Delta {
		e.violation = &Violation{
			Start:   e.startTime,
			End:     t,
			Sent:    j - e.startIndex + 1,
			Allowed: e.bound(t - e.startTime),
		}
	}
}

// bound returns the maximum number of messages permitted in a closed window
// of length t: floor(t/Δ) + 1 + C. This is the closed-interval form of the
// paper's ⌈t/Δ⌉ + C bound: a closed window of length t can contain at most
// floor(t/Δ)+1 proactive-period boundaries (token grants), and at most C
// banked tokens can be spent on top of those. For window lengths that are not
// exact multiples of Δ the two forms coincide.
func (e *Envelope) bound(t float64) int {
	if t < 0 {
		t = 0
	}
	periods := int(t/e.Delta) + 1
	return periods + e.Capacity
}

// Violation describes a window in which the rate-limit bound was exceeded.
type Violation struct {
	// Start and End delimit the offending window [Start, End].
	Start, End float64
	// Sent is the number of messages observed in the window.
	Sent int
	// Allowed is the bound ceil((End-Start)/Δ) + C.
	Allowed int
}

// Error implements the error interface so a Violation can be returned
// directly from test helpers.
func (v *Violation) Error() string {
	return fmt.Sprintf("rate limit violated: %d messages in [%g, %g] (allowed %d)",
		v.Sent, v.Start, v.End, v.Allowed)
}

// Verify returns the first violation of the ceil(t/Δ)+C bound among the
// recorded sends — the earliest send that closed an over-full window, with
// the tightest window ending there — or nil if the trace is compliant.
func (e *Envelope) Verify() *Violation { return e.violation }
