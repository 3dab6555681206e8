// Package netmodel defines per-message network latency and loss models for
// the token account runtimes. The paper's evaluation delivers every message
// after one global constant transfer delay (1.728 s, §4.1); a Model
// generalizes that scalar into a per-link distribution so experiments can
// cover heterogeneous deployments — smartphones behind variable links,
// WAN-style zoned topologies — while staying fully deterministic.
//
// Models are consulted by runtime.Host on every outgoing message: Drop first
// (loss in transit), then Delay (transfer latency). All randomness comes from
// the protocol.Rand the caller passes in — in a Host that is the StreamNet
// stream — so for a fixed seed the sampled network is bit-for-bit
// reproducible across runs, queue implementations and runtimes. Models must
// not keep internal mutable state or retain r.
//
// Every built-in model is a plain value type whose methods allocate nothing,
// preserving the simulator's zero-allocation message path: Delay returns a
// float64 that the discrete-event environment feeds straight into
// ScheduleDelivery's per-event delay.
package netmodel

import (
	"fmt"
	"math"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/protocol"
)

// Model samples the network behaviour of one message from -> to. Both
// methods must be deterministic functions of (from, to) and the draws they
// take from r, so that a run is reproducible from its seed. Implementations
// that need no randomness (Constant, Zones) must not draw from r at all —
// the paper's fixed-delay network then leaves the StreamNet stream to the
// protocol's own network-level draws, exactly as before models existed.
type Model interface {
	// Delay returns the transfer latency in seconds for one message. The
	// result must be non-negative and finite.
	Delay(from, to protocol.NodeID, r protocol.Rand) float64
	// Drop reports whether the message is lost in transit, before the
	// latency sampled by Delay would apply. Callers skip Delay for dropped
	// messages.
	Drop(from, to protocol.NodeID, r protocol.Rand) bool
}

// Constant delivers every message after the same fixed delay — the paper's
// network model (D = 1.728 s, §4.1), and the experiments' default network.
// It draws no randomness.
type Constant struct {
	D float64
}

// NewConstant validates the delay and returns the model.
func NewConstant(d float64) (Constant, error) {
	if err := checkDelay("constant", "delay", d); err != nil {
		return Constant{}, err
	}
	return Constant{D: d}, nil
}

// Delay implements Model.
func (c Constant) Delay(_, _ protocol.NodeID, _ protocol.Rand) float64 { return c.D }

// Drop implements Model.
func (Constant) Drop(_, _ protocol.NodeID, _ protocol.Rand) bool { return false }

// String renders the model in its spec form.
func (c Constant) String() string { return fmt.Sprintf("constant:%g", c.D) }

// Uniform samples the delay uniformly from [Lo, Hi) — bounded jitter around
// a base latency. One uniform draw per message.
type Uniform struct {
	Lo, Hi float64
}

// NewUniform validates the bounds and returns the model.
func NewUniform(lo, hi float64) (Uniform, error) {
	if err := checkDelay("uniform", "lo", lo); err != nil {
		return Uniform{}, err
	}
	if err := checkDelay("uniform", "hi", hi); err != nil {
		return Uniform{}, err
	}
	if hi < lo {
		return Uniform{}, fmt.Errorf("netmodel: uniform bounds inverted: lo = %g > hi = %g", lo, hi)
	}
	return Uniform{Lo: lo, Hi: hi}, nil
}

// Delay implements Model.
func (u Uniform) Delay(_, _ protocol.NodeID, r protocol.Rand) float64 {
	return u.Lo + r.Float64()*(u.Hi-u.Lo)
}

// Drop implements Model.
func (Uniform) Drop(_, _ protocol.NodeID, _ protocol.Rand) bool { return false }

// String renders the model in its spec form.
func (u Uniform) String() string { return fmt.Sprintf("uniform:%g:%g", u.Lo, u.Hi) }

// Exponential samples the delay from an exponential distribution with the
// given mean — the classic memoryless link: inter-delivery gaps lose the
// near-constant structure the paper's setup produces, so every delivery goes
// through the engine's heap rather than a lane. One uniform draw per message.
type Exponential struct {
	Mean float64
}

// NewExponential validates the mean and returns the model.
func NewExponential(mean float64) (Exponential, error) {
	if err := checkDelay("exponential", "mean", mean); err != nil {
		return Exponential{}, err
	}
	if mean == 0 {
		return Exponential{}, fmt.Errorf("netmodel: exponential mean must be > 0")
	}
	return Exponential{Mean: mean}, nil
}

// Delay implements Model: inverse-transform sampling. Float64 returns values
// in [0, 1), so the argument of Log stays in (0, 1] and the result is finite.
func (e Exponential) Delay(_, _ protocol.NodeID, r protocol.Rand) float64 {
	return -e.Mean * math.Log(1-r.Float64())
}

// Drop implements Model.
func (Exponential) Drop(_, _ protocol.NodeID, _ protocol.Rand) bool { return false }

// String renders the model in its spec form.
func (e Exponential) String() string { return fmt.Sprintf("exponential:%g", e.Mean) }

// LogNormal samples the delay from a log-normal distribution: exp(N(Mu,
// Sigma²)), the standard model for heavy-tailed internet round-trip times.
// Mu and Sigma are the parameters of the underlying normal, so the median
// delay is exp(Mu). Two uniform draws per message (Box–Muller).
type LogNormal struct {
	Mu, Sigma float64
}

// maxLogNormalZ bounds the Box–Muller variate of Delay: |z| ≤
// sqrt(-2·ln(2⁻⁵³)) ≈ 8.58, because Float64 resolves to 2⁻⁵³ and the cosine
// factor is in [-1, 1].
const maxLogNormalZ = 8.58

// NewLogNormal validates the parameters and returns the model. Parameter
// combinations whose extreme tail draw would overflow exp — breaking the
// Model contract that delays are finite — are rejected here rather than
// producing an unreachable +Inf delivery time mid-run.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	switch {
	case math.IsNaN(mu) || math.IsInf(mu, 0):
		return LogNormal{}, fmt.Errorf("netmodel: lognormal mu = %g, need finite", mu)
	case sigma < 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0):
		return LogNormal{}, fmt.Errorf("netmodel: lognormal sigma = %g, need ≥ 0 and finite", sigma)
	case math.IsInf(math.Exp(mu+maxLogNormalZ*sigma), 1):
		return LogNormal{}, fmt.Errorf("netmodel: lognormal mu = %g, sigma = %g can overflow to an infinite delay (need exp(mu+%g·sigma) finite)",
			mu, sigma, maxLogNormalZ)
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// Delay implements Model: a Box–Muller normal variate mapped through exp.
// The 1-u mapping keeps the Log argument in (0, 1]. An overflowing draw from
// a hand-built model (NewLogNormal rejects such parameters) is clamped to
// the largest finite delay, preserving the Model contract.
func (l LogNormal) Delay(_, _ protocol.NodeID, r protocol.Rand) float64 {
	u, v := r.Float64(), r.Float64()
	z := math.Sqrt(-2*math.Log(1-u)) * math.Cos(2*math.Pi*v)
	d := math.Exp(l.Mu + l.Sigma*z)
	if math.IsInf(d, 1) {
		return math.MaxFloat64
	}
	return d
}

// Drop implements Model.
func (LogNormal) Drop(_, _ protocol.NodeID, _ protocol.Rand) bool { return false }

// String renders the model in its spec form.
func (l LogNormal) String() string { return fmt.Sprintf("lognormal:%g:%g", l.Mu, l.Sigma) }

// zoneStream salts the zone-assignment hash ("zones" in ASCII) so it is
// decorrelated from every runtime randomness stream.
const zoneStream uint64 = 0x7a6f6e6573

// Zones hashes every node into one of K zones and delivers intra-zone
// messages after Intra seconds and cross-zone messages after Inter seconds —
// the WAN case: clusters of nearby nodes (a data centre, a metro area)
// joined by slower long-haul links, as in ByzCoin-style geo-distributed
// gossip deployments. The assignment is a pure hash of the node id, so it
// draws no randomness and is identical across runs, repetitions and
// runtimes.
type Zones struct {
	K            int
	Intra, Inter float64
}

// NewZones validates the parameters and returns the model.
func NewZones(k int, intra, inter float64) (Zones, error) {
	if k < 1 {
		return Zones{}, fmt.Errorf("netmodel: zones count = %d, need ≥ 1", k)
	}
	if err := checkDelay("zones", "intra", intra); err != nil {
		return Zones{}, err
	}
	if err := checkDelay("zones", "inter", inter); err != nil {
		return Zones{}, err
	}
	return Zones{K: k, Intra: intra, Inter: inter}, nil
}

// Zone returns the zone index of a node in [0, K). A hand-built model with
// K < 2 (NewZones enforces K ≥ 1) degenerates to a single zone instead of
// dividing by zero.
func (z Zones) Zone(node protocol.NodeID) int {
	if z.K < 2 {
		return 0
	}
	return int(rng.Derive(zoneStream, uint64(node)) % uint64(z.K))
}

// Delay implements Model.
func (z Zones) Delay(from, to protocol.NodeID, _ protocol.Rand) float64 {
	if z.Zone(from) == z.Zone(to) {
		return z.Intra
	}
	return z.Inter
}

// Drop implements Model.
func (Zones) Drop(_, _ protocol.NodeID, _ protocol.Rand) bool { return false }

// String renders the model in its spec form.
func (z Zones) String() string { return fmt.Sprintf("zones:%d:%g:%g", z.K, z.Intra, z.Inter) }

// Lossy drops each message independently with probability P and defers the
// latency of surviving messages to the wrapped model. It composes with every
// other model ("lossy:0.01:exponential:2"), covering the loss half of a
// heterogeneous network on top of any latency shape. One uniform draw per
// message for the loss lottery (none when P is 0).
type Lossy struct {
	P     float64
	Inner Model
}

// NewLossy validates the probability and returns the model.
func NewLossy(p float64, inner Model) (Lossy, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return Lossy{}, fmt.Errorf("netmodel: lossy probability = %g outside [0,1]", p)
	}
	if inner == nil {
		return Lossy{}, fmt.Errorf("netmodel: lossy inner model is nil")
	}
	return Lossy{P: p, Inner: inner}, nil
}

// Delay implements Model.
func (l Lossy) Delay(from, to protocol.NodeID, r protocol.Rand) float64 {
	return l.Inner.Delay(from, to, r)
}

// Drop implements Model. Inner losses draw first, so wrapping a model never
// changes the position of its own draws in the stream.
func (l Lossy) Drop(from, to protocol.NodeID, r protocol.Rand) bool {
	if l.Inner.Drop(from, to, r) {
		return true
	}
	return l.P > 0 && r.Float64() < l.P
}

// String renders the model in its spec form.
func (l Lossy) String() string { return fmt.Sprintf("lossy:%g:%s", l.P, modelLabel(l.Inner)) }

// modelLabel renders a model for display, falling back to %v for models
// without a String method.
func modelLabel(m Model) string {
	if s, ok := m.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%v", m)
}

// checkDelay rejects negative, NaN and infinite latency parameters.
func checkDelay(model, field string, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("netmodel: %s %s = %g, need ≥ 0 and finite", model, field, v)
	}
	return nil
}
