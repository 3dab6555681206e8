package live_test

import (
	"math"
	stdruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/simnet"
	"github.com/szte-dcs/tokenaccount/transport"
)

func TestEnvConfigValidation(t *testing.T) {
	broken := []live.EnvConfig{
		{N: 0},
		{N: 4, TimeScale: -1},
		{N: 4, Latency: -1},
		{N: 4, QueueSize: -1},
		// A latency spanning more than a wall-clock year used to be silently
		// clamped; it is now a validation error.
		{N: 4, TimeScale: 1, Latency: 400 * 24 * 3600 * 365},
		{N: 4, TimeScale: 1e6, Latency: 40},
	}
	for i, cfg := range broken {
		if env, err := live.NewEnv(cfg); err == nil {
			env.Close()
			t.Errorf("broken env config %d accepted", i)
		}
	}
}

// TestEnvTimersFireInOrder schedules a mix of At and Every callbacks
// and checks they run in run-time order at roughly the right wall times.
func TestEnvTimersFireInOrder(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 0.001}) // 1 run-second = 1 ms
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var order []int
	env.At(30, func() { order = append(order, 2) })
	env.At(10, func() { order = append(order, 1) })
	env.Every(45, 20, func() bool { order = append(order, 3); return len(order) < 6 })
	env.At(env.Now()+120, func() { order = append(order, 4) })
	env.At(300, func() { order = append(order, 9) }) // beyond the horizon: must not run
	if err := env.Run(150); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 3, 3, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if now := env.Now(); now < 150 {
		t.Errorf("Now() = %v after Run(150)", now)
	}
}

func TestEnvLifecycleAndRand(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 3, Seed: 77, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	online := env.Availability()
	if online.N() != 3 || !online.AllOnline() {
		t.Fatal("fresh env should have every node online")
	}
	// The live environment derives the same random streams as the simulated
	// one for the same seed — the documented cross-runtime property.
	sim, err := simnet.NewEnv(simnet.EnvConfig{N: 3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []uint64{0, 2, runtime.StreamNet, runtime.StreamPhase} {
		if a, b := env.StreamSeed(s), sim.StreamSeed(s); a != b {
			t.Fatalf("stream %#x: live seed %#x, simulated seed %#x", s, a, b)
		}
	}
}

func TestEnvCloseIsIdempotentAndStopsRun(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if err := env.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
	if err := env.Run(1); err == nil {
		t.Error("Run after Close should fail")
	}
}

// TestEnvRunHorizonBeyondYearFails pins the fix for the silent one-year
// clamp: a horizon whose wall-clock span exceeds a year made Run return
// early with no error; it must now be rejected up front.
func TestEnvRunHorizonBeyondYearFails(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if err := env.Run(400 * 24 * 3600 * 365); err == nil {
		t.Error("Run accepted a horizon spanning more than a wall-clock year")
	}
	// The same horizon is fine under a time scale that compresses it below
	// the limit.
	scaled, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	defer scaled.Close()
	if err := scaled.Run(400 * 24 * 3600 * 365); err != nil {
		t.Errorf("compressed horizon rejected: %v", err)
	}
}

// TestEnvLifecycleOutOfRange pins the bounds behaviour of the online set: a
// stray node id must report offline / no-op instead of panicking on the run
// loop.
func TestEnvLifecycleOutOfRange(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 3, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	online := env.Availability()
	for _, node := range []int{-1, 3, 1 << 20} {
		if online.Online(node) {
			t.Errorf("Online(%d) = true for an out-of-range id", node)
		}
		online.Set(node, true)  // must not panic
		online.Set(node, false) // must not panic
	}
	if !online.Online(0) || !online.Online(2) {
		t.Error("in-range nodes must stay online")
	}
}

// TestEnvSendDelayed checks that a model-sampled per-message delay holds the
// message back for the requested run time before it enters the transport.
func TestEnvSendDelayed(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	type arrival struct{ at float64 }
	var arrivals []arrival
	env.SetDeliver(func(from, to protocol.NodeID, payload protocol.Payload) {
		arrivals = append(arrivals, arrival{at: env.Now()})
	})
	env.At(0, func() {
		env.SendDelayed(0, 1, protocol.BoxPayload("slow"), 60)
		env.SendDelayed(0, 1, protocol.BoxPayload("fast"), 0)
	})
	if err := env.Run(120); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(arrivals))
	}
	if arrivals[0].at >= arrivals[1].at {
		t.Errorf("zero-delay message arrived at %v, after the delayed one at %v", arrivals[0].at, arrivals[1].at)
	}
	if arrivals[1].at < 60 {
		t.Errorf("delayed message arrived at run time %v, want ≥ 60", arrivals[1].at)
	}
}

// TestEnvSendDelayedNonPositiveDelayDeliversNow sends in process with a zero,
// NaN and negative delay: each message is due at the run time it was sent,
// so it arrives after the sending callback has returned — never inside Send
// — and before a timer set for a moment later.
func TestEnvSendDelayedNonPositiveDelayDeliversNow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay float64
	}{{"zero", 0}, {"NaN", math.NaN()}, {"negative", -5}} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 0.001})
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			var (
				sending, markerFired bool
				sentAt               float64
				arrivals             []float64
			)
			env.SetDeliver(func(protocol.NodeID, protocol.NodeID, protocol.Payload) {
				if sending {
					t.Error("message delivered inside SendDelayed")
				}
				if markerFired {
					t.Error("message delivered after a timer set 50 run-seconds past its send")
				}
				arrivals = append(arrivals, env.Now())
			})
			env.At(0, func() {
				sending = true
				sentAt = env.Now()
				env.SendDelayed(0, 1, protocol.WordPayload(protocol.KindUpdateSeq, 1), tc.delay)
				sending = false
				env.At(env.Now()+50, func() { markerFired = true })
			})
			if err := env.Run(100); err != nil {
				t.Fatal(err)
			}
			if len(arrivals) != 1 {
				t.Fatalf("%d deliveries, want 1", len(arrivals))
			}
			if arrivals[0] < sentAt {
				t.Errorf("message sent at run time %v arrived at %v, before it was sent", sentAt, arrivals[0])
			}
		})
	}
}

// TestEnvInProcessDeliveriesKeepSendOrder sends 64 messages with one delay
// from two senders in one callback: in process they all fall due at the
// same run time, and the engine's (time, seq) order delivers them in the
// order they were sent.
func TestEnvInProcessDeliveriesKeepSendOrder(t *testing.T) {
	const burst = 64
	env, err := live.NewEnv(live.EnvConfig{N: 3, TimeScale: 0.001, Latency: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var got []uint64
	env.SetDeliver(func(from, to protocol.NodeID, p protocol.Payload) {
		if to != 2 {
			t.Errorf("message from %d delivered to %d, want 2", from, to)
		}
		got = append(got, p.Word)
	})
	env.At(0, func() {
		for i := 0; i < burst; i++ {
			env.Send(protocol.NodeID(i%2), 2, protocol.WordPayload(protocol.KindUpdateSeq, uint64(i)))
		}
	})
	if err := env.Run(50); err != nil {
		t.Fatal(err)
	}
	if len(got) != burst {
		t.Fatalf("%d of %d messages arrived", len(got), burst)
	}
	for i, w := range got {
		if w != uint64(i) {
			t.Fatalf("delivery %d carried message %d, want send order: %v", i, w, got)
		}
	}
}

// TestEnvDeliveryPastHorizonStaysPending sends in process with a delay that
// lands past the run's horizon: the run does not deliver it, as in the
// simulated environment, and a later run whose horizon covers it does.
func TestEnvDeliveryPastHorizonStaysPending(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var arrivals []float64
	env.SetDeliver(func(protocol.NodeID, protocol.NodeID, protocol.Payload) {
		arrivals = append(arrivals, env.Now())
	})
	env.At(0, func() { env.SendDelayed(0, 1, protocol.BoxPayload("late"), 20) })
	if err := env.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 0 {
		t.Fatalf("message due at run time 20 delivered within a horizon of 10, at %v", arrivals)
	}
	if err := env.Run(30); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 1 {
		t.Fatalf("%d deliveries after the horizon passed the message, want 1", len(arrivals))
	}
	if arrivals[0] < 20 {
		t.Errorf("message due at run time 20 arrived at %v", arrivals[0])
	}
}

// TestHostOverLiveEnvWithNetworkModel runs a full host on the wall-clock
// environment under a heterogeneous network model: traffic must still flow
// and the model delays must not break the run loop.
func TestHostOverLiveEnvWithNetworkModel(t *testing.T) {
	const (
		n     = 10
		delta = 100.0
		scale = 1e-4
	)
	graph, err := overlay.RandomKOut(n, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	env, err := live.NewEnv(live.EnvConfig{N: n, Seed: 21, TimeScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	host, err := runtime.NewHost(env, runtime.Config{
		Graph:    graph,
		Strategy: core.MustGeneralized(1, 5),
		NewApp:   func(int) protocol.Application { return pushgossip.New() },
		Delta:    delta,
		Network:  netmodel.Zones{K: 2, Intra: delta / 200, Inter: delta / 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.At(delta/2, func() {
		if node, ok := host.RandomOnlineNode(); ok {
			host.App(node).(*pushgossip.State).Inject(1)
		}
	})
	if err := host.Run(8 * delta); err != nil {
		t.Fatal(err)
	}
	if host.MessagesSent() == 0 || host.MessagesDelivered() == 0 {
		t.Errorf("no traffic under the network model: sent %d, delivered %d",
			host.MessagesSent(), host.MessagesDelivered())
	}
}

// oddHalfCut is a directed partition: every message into an odd node is
// lost, and every other message arrives after a fixed delay.
type oddHalfCut struct{ d float64 }

func (c oddHalfCut) Delay(_, _ protocol.NodeID, _ protocol.Rand) float64 { return c.d }

func (oddHalfCut) Drop(_, to protocol.NodeID, _ protocol.Rand) bool { return to%2 == 1 }

// TestHostOverLiveEnvLosesOnlyThroughNetworkModel runs a host in process
// under a directed partition given as its network model, the one source of
// message loss: no odd node ever receives the update injected at node 0, the
// cut messages count as dropped, and traffic among the even nodes flows.
func TestHostOverLiveEnvLosesOnlyThroughNetworkModel(t *testing.T) {
	const (
		n     = 12
		delta = 100.0
		scale = 1e-4
	)
	graph, err := overlay.RandomKOut(n, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	env, err := live.NewEnv(live.EnvConfig{N: n, Seed: 21, TimeScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	host, err := runtime.NewHost(env, runtime.Config{
		Graph:    graph,
		Strategy: core.MustGeneralized(1, 5),
		NewApp:   func(int) protocol.Application { return pushgossip.New() },
		Delta:    delta,
		Network:  oddHalfCut{d: delta / 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.At(delta/2, func() { host.App(0).(*pushgossip.State).Inject(1) })
	if err := host.Run(8 * delta); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i += 2 {
		if seq := host.App(i).(*pushgossip.State).Seq(); seq >= 1 {
			t.Errorf("node %d behind the cut holds update %d", i, seq)
		}
	}
	if host.MessagesDropped() == 0 || host.MessagesDelivered() == 0 {
		t.Errorf("dropped %d and delivered %d messages, want both > 0",
			host.MessagesDropped(), host.MessagesDelivered())
	}
}

// TestHostOverLiveEnv assembles a full runtime.Host against the wall-clock
// environment and checks that real traffic flows: proactive rounds fire on
// wall timers, messages travel through the run loop, and churn scheduled
// through the environment takes effect. This is the live half of the "one
// assembly, two runtimes" contract.
func TestHostOverLiveEnv(t *testing.T) {
	const (
		n     = 12
		delta = 100.0 // run-seconds
		scale = 1e-4  // Δ lasts 10 ms of wall time
	)
	graph, err := overlay.RandomKOut(n, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	env, err := live.NewEnv(live.EnvConfig{N: n, Seed: 21, TimeScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	host, err := runtime.NewHost(env, runtime.Config{
		Graph:    graph,
		Strategy: core.MustGeneralized(1, 5),
		NewApp:   func(int) protocol.Application { return pushgossip.New() },
		Delta:    delta,
		Network:  netmodel.Constant{D: delta / 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Inject one fresh update near the start and take a node offline for the
	// middle of the run.
	env.At(delta/2, func() {
		if node, ok := host.RandomOnlineNode(); ok {
			host.App(node).(*pushgossip.State).Inject(1)
		}
	})
	env.At(3*delta, func() { host.SetOffline(0) })
	env.At(6*delta, func() { host.SetOnline(0) })

	var samples int
	host.SamplePeriodic(delta, delta, func(float64) { samples++ })

	if err := host.Run(10 * delta); err != nil {
		t.Fatal(err)
	}

	stats := host.TotalStats()
	if stats.Rounds == 0 {
		t.Fatal("no proactive rounds executed on the live environment")
	}
	if host.MessagesSent() == 0 || host.MessagesDelivered() == 0 {
		t.Errorf("no traffic: sent %d, delivered %d", host.MessagesSent(), host.MessagesDelivered())
	}
	if samples < 8 {
		t.Errorf("only %d metric samples in 10 rounds", samples)
	}
	if !host.Online(0) {
		t.Error("node 0 still offline at the end of the run")
	}
	covered := 0
	for i := 0; i < n; i++ {
		if host.App(i).(*pushgossip.State).Seq() >= 1 {
			covered++
		}
	}
	if covered < n/2 {
		t.Errorf("update reached %d of %d nodes", covered, n)
	}
	if env.DroppedDeliveries() != 0 {
		t.Logf("run loop dropped %d deliveries (acceptable under load)", env.DroppedDeliveries())
	}
}

// tickClock is a node's application with the run time of every message it
// creates on record. Under the purely proactive strategy a node creates one
// message per tick, so the record is the node's tick times.
type tickClock struct {
	protocol.Application
	env   *live.Env
	times []float64
}

func (a *tickClock) CreateMessage() protocol.Payload {
	a.times = append(a.times, a.env.Now())
	return a.Application.CreateMessage()
}

// TestLiveTicksNeverCatchUp stalls the run loop of a live host for about 6Δ
// and requires the §3.4 rate bound to hold on every node anyway. A tick
// re-arms one Δ after it has run, so ticks missed during the stall are
// skipped, not replayed back to back once the loop resumes: consecutive
// ticks of a node are at least Δ apart in run time, and the audit of every
// node is clean. A tick schedule on the fixed grid replays them and breaks
// the bound on every node.
func TestLiveTicksNeverCatchUp(t *testing.T) {
	const (
		n     = 4
		delta = 10.0  // run-seconds
		scale = 1e-3  // Δ lasts 10 ms of wall time
		stall = 60e-3 // wall seconds, about 6Δ
	)
	graph, err := overlay.RandomKOut(n, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := live.NewEnv(live.EnvConfig{N: n, Seed: 5, TimeScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	apps := make([]*tickClock, n)
	host, err := runtime.NewHost(env, runtime.Config{
		Graph:    graph,
		Strategy: core.PurelyProactive{},
		NewApp: func(i int) protocol.Application {
			apps[i] = &tickClock{Application: pushgossip.New(), env: env}
			return apps[i]
		},
		Delta:   delta,
		Audit:   true,
		Network: netmodel.Constant{},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.At(3*delta, func() { time.Sleep(time.Duration(stall * float64(time.Second))) })
	if err := host.Run(12 * delta); err != nil {
		t.Fatal(err)
	}
	for _, v := range host.AuditViolations() {
		t.Errorf("audit: %v", v)
	}
	for i, app := range apps {
		if len(app.times) < 3 {
			t.Fatalf("node %d ticked %d times in 12 periods", i, len(app.times))
		}
		for k := 1; k < len(app.times); k++ {
			if gap := app.times[k] - app.times[k-1]; gap < delta*(1-1e-9) {
				t.Errorf("node %d: ticks %d and %d are %.3g run-seconds apart, want ≥ Δ = %g", i, k-1, k, gap, delta)
			}
		}
	}
}

// TestEnvEveryFiresAllTicksUnderStall is the regression test for the dropped
// final metric sample: with an extreme time compression the wall deadline
// passes before the run loop executes a single event, so every periodic tick
// within the horizon must fire in Run's deadline drain. Every used to re-arm
// through At, whose past-time clamp pushed the next tick beyond the horizon
// the moment the deadline had passed — a periodic chain that fell behind
// (a stalled CI machine) lost its tail and the sampling grid silently
// shrank relative to the simulated runtime's.
func TestEnvEveryFiresAllTicksUnderStall(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var ticks []float64
	next := 1.0
	env.Every(1, 1, func() bool {
		ticks = append(ticks, next)
		next++
		return true
	})
	if err := env.Run(8); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 8 {
		t.Fatalf("got %d periodic ticks within the horizon, want 8 (%v)", len(ticks), ticks)
	}
}

// TestEnvStop covers the way out of a run without a horizon: a Run blocked
// with nothing to do returns on Stop, timers scheduled before the Stop fire
// while it runs and none after, a later Run returns at once, and Stop is
// idempotent.
func TestEnvStop(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var ticks atomic.Int64
	env.Every(0.001, 0.001, func() bool { ticks.Add(1); return true })
	finished := make(chan error, 1)
	go func() { finished <- env.Run(math.Inf(1)) }()
	for deadline := time.Now().Add(5 * time.Second); ticks.Load() < 3; {
		if time.Now().After(deadline) {
			t.Fatal("the horizon-less run executed no timers")
		}
		time.Sleep(time.Millisecond)
	}
	env.Stop()
	env.Stop()
	select {
	case err := <-finished:
		if err != nil {
			t.Errorf("Run = %v after Stop, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return on Stop")
	}
	frozen := ticks.Load()
	begin := time.Now()
	if err := env.Run(3600); err != nil {
		t.Errorf("Run on a stopped environment = %v, want nil", err)
	}
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Errorf("Run on a stopped environment took %v", elapsed)
	}
	if got := ticks.Load(); got != frozen {
		t.Errorf("%d timers fired after Stop", got-frozen)
	}
}

// TestEnvStopWhileIdle stops a run that sleeps with nothing scheduled: the
// stop has to wake the loop, not wait for its next event.
func TestEnvStopWhileIdle(t *testing.T) {
	env, err := live.NewEnv(live.EnvConfig{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	finished := make(chan error, 1)
	go func() { finished <- env.Run(math.Inf(1)) }()
	time.Sleep(20 * time.Millisecond)
	env.Stop()
	select {
	case <-finished:
	case <-time.After(2 * time.Second):
		t.Fatal("an idle Run did not return on Stop")
	}
}

// loopback is an external transport for tests: SendPayload hands the payload
// to the destination endpoint's handler on the sending goroutine.
type loopback struct {
	id    protocol.NodeID
	peers []*loopback
	h     transport.PayloadHandler
}

func (l *loopback) SendPayload(to protocol.NodeID, p protocol.Payload) error {
	if int(to) < len(l.peers) {
		l.peers[to].h(l.id, p)
	}
	return nil
}

func (l *loopback) SetPayloadHandler(h transport.PayloadHandler) { l.h = h }

func (l *loopback) Close() error { return nil }

// loopbackMesh returns an EnvConfig.NewTransport over n loopback endpoints.
func loopbackMesh(n int) func(int) (transport.Transport, error) {
	peers := make([]*loopback, n)
	for i := range peers {
		peers[i] = &loopback{id: protocol.NodeID(i), peers: peers}
	}
	return func(i int) (transport.Transport, error) { return peers[i], nil }
}

// TestEnvDropsDeliveriesWhenQueueIsFull fills the one-slot delivery queue of
// an Env over an external transport while the run loop is busy in a
// callback: the transport's handler drops the surplus and counts it, another
// goroutine reads the count while Run executes, and the one message that fit
// is delivered once the loop is free.
func TestEnvDropsDeliveriesWhenQueueIsFull(t *testing.T) {
	const sent = 5
	env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 0.001, QueueSize: 1, NewTransport: loopbackMesh(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	delivered := 0
	env.SetDeliver(func(from, to protocol.NodeID, payload protocol.Payload) { delivered++ })
	observed := make(chan int64, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for env.DroppedDeliveries() < sent-1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		observed <- env.DroppedDeliveries()
	}()
	var seen int64 = -1
	env.At(0, func() {
		for i := 0; i < sent; i++ {
			env.Send(0, 1, protocol.BoxPayload(i))
		}
		seen = <-observed
	})
	if err := env.Run(100); err != nil {
		t.Fatal(err)
	}
	if seen != sent-1 {
		t.Errorf("DroppedDeliveries read %d from another goroutine during Run, want %d", seen, sent-1)
	}
	if got := env.DroppedDeliveries(); got != sent-1 {
		t.Errorf("DroppedDeliveries = %d after Run, want %d", got, sent-1)
	}
	if delivered != 1 {
		t.Errorf("%d deliveries, want the 1 that fit the queue", delivered)
	}
}

// TestEnvDropsSendsFromUnknownNodes sends from node ids outside [0, N), with
// and without a delay, in process and over an external transport: each such
// message is dropped at the send without a panic, and a message from a real
// node in the same callback still arrives.
func TestEnvDropsSendsFromUnknownNodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  live.EnvConfig
	}{
		{"memory", live.EnvConfig{N: 2, TimeScale: 0.001}},
		{"loopback", live.EnvConfig{N: 2, TimeScale: 0.001, NewTransport: loopbackMesh(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := live.NewEnv(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			var from []protocol.NodeID
			env.SetDeliver(func(f, _ protocol.NodeID, _ protocol.Payload) { from = append(from, f) })
			env.At(0, func() {
				for _, bad := range []protocol.NodeID{-1, 2, 1000} {
					env.SendDelayed(bad, 0, protocol.BoxPayload("stray"), 0)
					env.SendDelayed(bad, 0, protocol.BoxPayload("stray"), 1)
				}
				env.SendDelayed(1, 0, protocol.BoxPayload("real"), 1)
			})
			if err := env.Run(20); err != nil {
				t.Fatal(err)
			}
			if len(from) != 1 || from[0] != 1 {
				t.Errorf("deliveries came from %v, want only node 1", from)
			}
		})
	}
}

// TestEnvLatencyIsPerMessage requires EnvConfig.Latency to delay every
// message by itself, in process and over TCP alike: 16 messages sent
// in one callback all arrive one latency later, not one after another.
func TestEnvLatencyIsPerMessage(t *testing.T) {
	const (
		latency = 1.0 // run-seconds: 100 ms of wall time
		burst   = 16
	)
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"memory", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := live.EnvConfig{N: 2, TimeScale: 0.1, Latency: latency}
			if tc.tcp {
				cfg.NewTransport = tcpMesh(t, cfg.N, transport.NewRegistry())
			}
			env, err := live.NewEnv(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			var (
				sentAt   float64
				sent     bool
				arrivals []float64
			)
			env.SetDeliver(func(protocol.NodeID, protocol.NodeID, protocol.Payload) {
				if sent {
					arrivals = append(arrivals, env.Now()-sentAt)
				}
			})
			// A first message opens the TCP connection, so the burst measures
			// latency, not a dial.
			env.At(0, func() { env.Send(0, 1, protocol.WordPayload(protocol.KindUpdateSeq, 0)) })
			env.At(2*latency, func() {
				sentAt, sent = env.Now(), true
				for i := 1; i <= burst; i++ {
					env.Send(0, 1, protocol.WordPayload(protocol.KindUpdateSeq, uint64(i)))
				}
			})
			if err := env.Run(4 * latency); err != nil {
				t.Fatal(err)
			}
			if len(arrivals) != burst {
				t.Fatalf("%d of %d messages arrived: %v", len(arrivals), burst, arrivals)
			}
			for i, a := range arrivals {
				if a < latency || a > 1.5*latency {
					t.Errorf("message %d arrived %.3g run-seconds after it was sent, want within [%g, %g]", i, a, latency, 1.5*latency)
				}
			}
		})
	}
}

// nopHook is a hook that does nothing.
type nopHook struct{}

func (*nopHook) RunHook(int32, uint64) {}

// TestEnvSchedulingAllocs pins the closure-free scheduling paths: once the
// engine's slab and the hook's lane have grown, AtHook and SendDelayed of a
// word payload allocate nothing, and At nothing beyond its caller's closure.
func TestEnvSchedulingAllocs(t *testing.T) {
	const calls = 1000
	env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	hook := &nopHook{}
	fn := func() {}
	word := protocol.WordPayload(protocol.KindUpdateSeq, 7)
	// Warm up: more events of each kind than a measurement leaves pending
	// run through the engine, growing its slab and the hook's lane.
	for i := 0; i < 2*calls; i++ {
		env.At(0, fn)
		env.AtHook(0, hook, 0, 0)
		env.SendDelayed(0, 1, word, 1e-6)
	}
	if err := env.Run(1); err != nil {
		t.Fatal(err)
	}
	// Measured events lie an hour past the run, so they stay pending.
	later := env.Now() + 3600
	for _, c := range []struct {
		name string
		call func()
	}{
		{"AtHook", func() { env.AtHook(later, hook, 0, 0) }},
		{"SendDelayed", func() { env.SendDelayed(0, 1, word, 3600) }},
		{"At", func() { env.At(later, fn) }},
	} {
		if allocs := testing.AllocsPerRun(calls, c.call); allocs != 0 {
			t.Errorf("%s allocates %.2f times per call, want 0", c.name, allocs)
		}
	}
}

// TestEnvSendAllocs pins the in-process message path end to end: after
// warm-up, a word payload relayed between two nodes from inside the run
// loop's callbacks — Send, the engine's delivery event, the delivery
// callback — allocates nothing per message.
func TestEnvSendAllocs(t *testing.T) {
	const hops = 1000
	env, err := live.NewEnv(live.EnvConfig{N: 2, TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var (
		left          int
		before, after stdruntime.MemStats
	)
	env.SetDeliver(func(from, to protocol.NodeID, p protocol.Payload) {
		if left--; left > 0 {
			env.Send(to, from, p)
		} else {
			stdruntime.ReadMemStats(&after)
		}
	})
	// Go boxes integers below 256 without allocating, so a small word would
	// hide a boxing step.
	word := protocol.WordPayload(protocol.KindUpdateSeq, 1<<40)
	relay := func() {
		left = hops
		stdruntime.ReadMemStats(&before)
		env.Send(0, 1, word)
	}
	// The first relay warms the engine's delivery lane up; the second is
	// measured. Each ends within a run of one run-second (100 ms of wall
	// time).
	for horizon := 1.0; horizon <= 2; horizon++ {
		env.At(0, relay)
		if err := env.Run(horizon); err != nil {
			t.Fatal(err)
		}
		if left != 0 {
			t.Fatalf("relay stopped with %d of %d hops left", left, hops)
		}
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs/hops != 0 {
		t.Errorf("a relayed word payload allocates %.2f times per message in process, want 0", float64(mallocs)/hops)
	}
}

// TestInProcessEnvHasNoPerNodeCost builds a 4 096-node in-process Env: it
// starts no goroutine and allocates under 1 MB, because nodes that share the
// process need no transport endpoint, delivery goroutine or channel.
func TestInProcessEnvHasNoPerNodeCost(t *testing.T) {
	const n = 4096
	var before, after stdruntime.MemStats
	goroutines := stdruntime.NumGoroutine()
	stdruntime.ReadMemStats(&before)
	env, err := live.NewEnv(live.EnvConfig{N: n})
	stdruntime.ReadMemStats(&after)
	started := stdruntime.NumGoroutine() - goroutines
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if started > 0 {
		t.Errorf("NewEnv with %d nodes started %d goroutines, want 0", n, started)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Errorf("NewEnv with %d nodes allocated %d bytes, want < 1 MB", n, grown)
	}
}

// TestHostRunsOnMoreThan65536Nodes runs a Host of 70 000 nodes in process
// for three proactive rounds: an in-process Env is a simnet.Env paced by a
// clock, so its size has no bound beyond memory. Every node must tick and
// the §3.4 audit of every node must be clean.
func TestHostRunsOnMoreThan65536Nodes(t *testing.T) {
	const (
		n     = 70000
		delta = 172.8
	)
	graph, err := overlay.RandomKOut(n, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	env, err := live.NewEnv(live.EnvConfig{N: n, Seed: 9, TimeScale: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	host, err := runtime.NewHost(env, runtime.Config{
		Graph:    graph,
		Strategy: core.PurelyProactive{},
		NewApp:   func(int) protocol.Application { return pushgossip.New() },
		Delta:    delta,
		Audit:    true,
		Network:  netmodel.Constant{D: 1.728},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Run(3 * delta); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if host.Node(i).Stats().ProactiveSent == 0 {
			t.Fatalf("node %d never ticked in three rounds", i)
		}
	}
	if host.MessagesDelivered() == 0 {
		t.Error("no message delivered")
	}
	for _, v := range host.AuditViolations() {
		t.Errorf("audit: %v", v)
	}
}

// TestInProcessRunStartsNoGoroutine relays messages among the nodes of an
// in-process Env and reads the goroutine count in every delivery: Run
// delivers on the goroutine that called it and starts none of its own.
func TestInProcessRunStartsNoGoroutine(t *testing.T) {
	const n, hops = 64, 256
	env, err := live.NewEnv(live.EnvConfig{N: n, TimeScale: 0.001, Latency: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	before := stdruntime.NumGoroutine()
	most, left := 0, hops
	env.SetDeliver(func(_, to protocol.NodeID, p protocol.Payload) {
		most = max(most, stdruntime.NumGoroutine())
		if left--; left > 0 {
			env.Send(to, (to+1)%n, p)
		} else {
			env.Stop()
		}
	})
	env.At(0, func() { env.Send(0, 1, protocol.WordPayload(protocol.KindUpdateSeq, 1)) })
	if err := env.Run(5000); err != nil { // 5 s of wall time unless Stop ends it
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("relay stopped with %d of %d hops left", left, hops)
	}
	if most > before {
		t.Errorf("%d goroutines during the run, %d before it: Run started goroutines", most, before)
	}
}

// note is a boxed payload type.
type note struct {
	Text string `json:"text"`
}

// tcpMesh returns an EnvConfig.NewTransport over n fully meshed loopback TCP
// endpoints that share registry.
func tcpMesh(t *testing.T, n int, registry *transport.Registry) func(int) (transport.Transport, error) {
	t.Helper()
	eps := make([]*transport.TCPEndpoint, n)
	for i := range eps {
		ep, err := transport.NewTCPEndpoint(protocol.NodeID(i), "127.0.0.1:0", registry)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		eps[i] = ep
	}
	for i, ep := range eps {
		for j, peer := range eps {
			if i != j {
				ep.AddPeer(protocol.NodeID(j), peer.Addr())
			}
		}
	}
	return func(i int) (transport.Transport, error) { return eps[i], nil }
}

// TestEnvAddressesEveryPair sends two messages along every ordered pair of
// three nodes, one undelayed and one delayed (the two ways into a
// transport), each carrying its own pair in the word: in process and over
// TCP, each must reach its addressee, naming its sender. With three nodes a
// delivery addressed to the sender, or a receiver named as the sender,
// cannot pass for a correct one.
func TestEnvAddressesEveryPair(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"memory", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := live.EnvConfig{N: n, TimeScale: 1e-3}
			if tc.tcp {
				cfg.NewTransport = tcpMesh(t, cfg.N, transport.NewRegistry())
			}
			env, err := live.NewEnv(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			var seen [n * n]int
			arrived := 0
			env.SetDeliver(func(from, to protocol.NodeID, p protocol.Payload) {
				if want := uint64(from)*n + uint64(to); p.Word != want {
					t.Errorf("message of pair %d→%d delivered as %d→%d", p.Word/n, p.Word%n, from, to)
				}
				seen[p.Word%(n*n)]++
				if arrived++; arrived == 2*n*(n-1) {
					env.Stop()
				}
			})
			env.At(0, func() {
				for from := 0; from < n; from++ {
					for to := 0; to < n; to++ {
						if from == to {
							continue
						}
						p := protocol.WordPayload(protocol.KindUpdateSeq, uint64(from*n+to))
						for _, delay := range []float64{0, 1} {
							env.SendDelayed(protocol.NodeID(from), protocol.NodeID(to), p, delay)
						}
					}
				}
			})
			if err := env.Run(5000); err != nil { // 5 s of wall time unless Stop ends it
				t.Fatal(err)
			}
			for pair, count := range seen {
				want := 2
				if pair/n == pair%n {
					want = 0 // no node sends to itself
				}
				if count != want {
					t.Errorf("pair %d→%d delivered %d times, want %d", pair/n, pair%n, count, want)
				}
			}
		})
	}
}

// TestEnvDeliversPayloadsUnchanged sends a word of a built-in kind, a word of
// a kind no package claims and a boxed value: in process and over TCP,
// each must reach the delivery callback with the Kind, Word and Box it was
// sent with.
func TestEnvDeliversPayloadsUnchanged(t *testing.T) {
	sent := []protocol.Payload{
		protocol.WordPayload(protocol.KindUpdateSeq, 1<<40+7),
		protocol.WordPayload(protocol.PayloadKind(1001), 42),
		protocol.BoxPayload(note{Text: "boxed"}),
	}
	registry := transport.NewRegistry()
	transport.Register[note](registry, "note")
	for _, tc := range []struct {
		name string
		tcp  bool
	}{{"memory", false}, {"tcp", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := live.EnvConfig{N: 2, TimeScale: 1e-3}
			if tc.tcp {
				cfg.NewTransport = tcpMesh(t, cfg.N, registry)
			}
			env, err := live.NewEnv(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			var got []protocol.Payload
			env.SetDeliver(func(_, _ protocol.NodeID, p protocol.Payload) {
				if got = append(got, p); len(got) == len(sent) {
					env.Stop()
				}
			})
			env.At(0, func() {
				for _, p := range sent {
					env.Send(0, 1, p)
				}
			})
			if err := env.Run(5000); err != nil { // 5 s of wall time unless Stop ends it
				t.Fatal(err)
			}
			if len(got) != len(sent) {
				t.Fatalf("%d of %d payloads arrived: %+v", len(got), len(sent), got)
			}
			for i := range sent {
				if got[i] != sent[i] {
					t.Errorf("payload %d arrived as %+v, want %+v", i, got[i], sent[i])
				}
			}
		})
	}
}
