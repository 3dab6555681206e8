package runtime_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/apps/blockcast"
	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/simnet"
	"github.com/szte-dcs/tokenaccount/trace"
)

const delta = 172.8

func testGraph(t *testing.T, n int) *overlay.Graph {
	t.Helper()
	g, err := overlay.RandomKOut(n, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func hostConfig(t *testing.T, n int) runtime.Config {
	t.Helper()
	return runtime.Config{
		Graph:    testGraph(t, n),
		Strategy: core.MustRandomized(2, 5),
		NewApp:   func(int) protocol.Application { return pushgossip.New() },
		Delta:    delta,
		Network:  netmodel.Constant{D: delta / 100},
	}
}

func newSimEnv(t *testing.T, n int, seed uint64) *simnet.Env {
	t.Helper()
	env, err := simnet.NewEnv(simnet.EnvConfig{N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestHostConfigValidation(t *testing.T) {
	valid := hostConfig(t, 20)
	if _, err := runtime.NewHost(newSimEnv(t, 20, 1), valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	broken := []func(c *runtime.Config){
		func(c *runtime.Config) { c.Graph = nil },
		func(c *runtime.Config) { c.Strategy = nil },
		func(c *runtime.Config) { c.NewApp = nil },
		func(c *runtime.Config) { c.Delta = 0 },
		func(c *runtime.Config) { c.Delta = math.NaN() },
		func(c *runtime.Config) { c.Delta = math.Inf(1) },
		func(c *runtime.Config) { c.InitialTokens = -1 },
		func(c *runtime.Config) { c.NewApp = func(int) protocol.Application { return nil } },
		func(c *runtime.Config) { c.Trace = &trace.Trace{Duration: 1, Segments: make([]trace.Segment, 3)} },
	}
	for i, mutate := range broken {
		cfg := hostConfig(t, 20)
		mutate(&cfg)
		if _, err := runtime.NewHost(newSimEnv(t, 20, 1), cfg); err == nil {
			t.Errorf("broken config %d accepted", i)
		}
	}
	if _, err := runtime.NewHost(nil, valid); err == nil {
		t.Error("nil environment accepted")
	}
	if _, err := runtime.NewHost(newSimEnv(t, 5, 1), valid); err == nil {
		t.Error("environment smaller than the overlay accepted")
	}
}

// TestHostLifecycleRejoinHook drives the lifecycle API by hand and checks
// that OnRejoin fires exactly on offline→online transitions.
func TestHostLifecycleRejoinHook(t *testing.T) {
	var rejoined []int
	cfg := hostConfig(t, 20)
	cfg.OnRejoin = func(_ *runtime.Host, node int) { rejoined = append(rejoined, node) }
	host, err := runtime.NewHost(newSimEnv(t, 20, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	host.SetOnline(4) // already online: no transition, no hook
	if len(rejoined) != 0 {
		t.Fatalf("hook fired for an already-online node: %v", rejoined)
	}
	host.SetOffline(4)
	if host.Online(4) || onlineCount(host) != 19 {
		t.Fatal("SetOffline did not take node 4 offline")
	}
	host.SetOnline(4)
	if !host.Online(4) {
		t.Fatal("SetOnline did not bring node 4 back")
	}
	if len(rejoined) != 1 || rejoined[0] != 4 {
		t.Errorf("rejoined = %v, want [4]", rejoined)
	}
}

// TestHostChurnTraceFiresRejoin replays a two-interval availability trace
// on every shipped environment and checks the scheduled transitions and the
// rejoin hook. The transitions are churn hook events, so this is the
// trace-churn path through each environment's AtHook.
func TestHostChurnTraceFiresRejoin(t *testing.T) {
	const n = 20
	duration := 10 * delta
	// 10Δ lasts about 17 ms of wall time on the live environment.
	for _, tc := range shippedEnvs(n, 5, delta/100, 1e-5) {
		t.Run(tc.name, func(t *testing.T) {
			tr := trace.AlwaysOnline(n, duration)
			// Node 7 crashes during [3Δ, 6Δ).
			tr.Segments[7] = trace.Segment{Intervals: []trace.Interval{
				{Start: 0, End: 3 * delta},
				{Start: 6 * delta, End: duration},
			}}
			var rejoined []int
			cfg := hostConfig(t, n)
			cfg.Trace = tr
			cfg.OnRejoin = func(_ *runtime.Host, node int) { rejoined = append(rejoined, node) }
			host, err := runtime.NewHost(tc.open(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := host.Run(4 * delta); err != nil {
				t.Fatal(err)
			}
			if host.Online(7) || onlineCount(host) != n-1 {
				t.Errorf("during node 7's outage: Online(7) = %v, online nodes: %d, want false and %d",
					host.Online(7), onlineCount(host), n-1)
			}
			if err := host.Run(10 * delta); err != nil {
				t.Fatal(err)
			}
			if !host.Online(7) || onlineCount(host) != n {
				t.Errorf("after node 7's outage: Online(7) = %v, online nodes: %d, want true and %d",
					host.Online(7), onlineCount(host), n)
			}
			if len(rejoined) != 1 || rejoined[0] != 7 {
				t.Errorf("rejoined = %v, want [7]", rejoined)
			}
			if host.TotalStats().Rounds == 0 {
				t.Error("no proactive rounds ran")
			}
		})
	}
}

// TestNewHostRequiresNetwork pins that the network model is the one source
// of loss and delay: a Config without one is rejected, and the error names
// the model that gives a fixed delay.
func TestNewHostRequiresNetwork(t *testing.T) {
	cfg := hostConfig(t, 20)
	cfg.Network = nil
	_, err := runtime.NewHost(newSimEnv(t, 20, 1), cfg)
	if err == nil || !strings.Contains(err.Error(), "netmodel.Constant") {
		t.Fatalf("NewHost without a network model: err = %v, want an error naming netmodel.Constant", err)
	}
}

// TestHostDropProbabilityOne drops every message through a Lossy model. The
// message count is the one a Host-level loss lottery of probability 1 gave
// before Lossy was the only loss: the lottery takes the same draw.
func TestHostDropProbabilityOne(t *testing.T) {
	cfg := hostConfig(t, 20)
	cfg.Network = netmodel.Lossy{P: 1, Inner: netmodel.Constant{D: delta / 100}}
	host, err := runtime.NewHost(newSimEnv(t, 20, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	host.App(0).(*pushgossip.State).Inject(1)
	if err := host.Run(30 * delta); err != nil {
		t.Fatal(err)
	}
	if host.MessagesDelivered() != 0 {
		t.Errorf("%d messages delivered despite drop probability 1", host.MessagesDelivered())
	}
	if host.MessagesSent() != 500 || host.MessagesDropped() != host.MessagesSent() {
		t.Errorf("sent %d, dropped %d: want 500 sent, every one dropped",
			host.MessagesSent(), host.MessagesDropped())
	}
}

// TestHostNetworkConstantModelMatchesDefault pins the paper's network on the
// model path to the numbers the environment's own fixed transfer delay gave
// before every message went through a model: the constant model draws no
// randomness, so the counters, protocol stats and balances are unchanged.
func TestHostNetworkConstantModelMatchesDefault(t *testing.T) {
	const n, seed = 60, 13
	env := newSimEnv(t, n, seed)
	host, err := runtime.NewHost(env, hostConfig(t, n))
	if err != nil {
		t.Fatal(err)
	}
	env.Every(delta/10, delta/10, func() bool {
		if node, ok := host.RandomOnlineNode(); ok {
			host.App(node).(*pushgossip.State).Inject(1)
		}
		return true
	})
	if err := host.Run(30 * delta); err != nil {
		t.Fatal(err)
	}
	if sent, delivered, dropped := host.MessagesSent(), host.MessagesDelivered(), host.MessagesDropped(); sent != 1500 || delivered != 1499 || dropped != 0 {
		t.Errorf("messages (sent, delivered, dropped) = (%d, %d, %d), want (1500, 1499, 0)", sent, delivered, dropped)
	}
	want := protocol.Stats{ProactiveSent: 1458, ReactiveSent: 42, Received: 1499, UsefulReceived: 30, TokensBanked: 342, Rounds: 1800}
	if got := host.TotalStats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	if got := host.AverageTokens(false); got != 5 {
		t.Errorf("average tokens = %v, want 5", got)
	}
}

// TestHostNetworkLossyDropsAreCounted checks that model-level losses land in
// the host's dropped counter and never reach a node.
func TestHostNetworkLossyDropsAreCounted(t *testing.T) {
	cfg := hostConfig(t, 20)
	cfg.Network = netmodel.Lossy{P: 1, Inner: netmodel.Constant{D: 1}}
	host, err := runtime.NewHost(newSimEnv(t, 20, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	host.App(0).(*pushgossip.State).Inject(1)
	if err := host.Run(30 * delta); err != nil {
		t.Fatal(err)
	}
	if host.MessagesDelivered() != 0 {
		t.Errorf("%d messages delivered despite a drop-everything network model", host.MessagesDelivered())
	}
	if host.MessagesSent() == 0 || host.MessagesDropped() != host.MessagesSent() {
		t.Errorf("sent %d, dropped %d: every sent message should be dropped",
			host.MessagesSent(), host.MessagesDropped())
	}
}

// TestSamplePeriodicMidRunMatchesVirtualTime registers the probe after the
// run has already advanced and checks that the reported nominal times still
// equal the virtual time of each firing bit-for-bit.
func TestSamplePeriodicMidRunMatchesVirtualTime(t *testing.T) {
	env := newSimEnv(t, 20, 2)
	host, err := runtime.NewHost(env, hostConfig(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Run(3 * delta); err != nil {
		t.Fatal(err)
	}
	var nominal, virtual []float64
	host.SamplePeriodic(delta, delta, func(ts float64) {
		nominal = append(nominal, ts)
		virtual = append(virtual, env.Now())
	})
	if err := host.Run(6 * delta); err != nil {
		t.Fatal(err)
	}
	if len(nominal) != 3 {
		t.Fatalf("got %d samples, want 3", len(nominal))
	}
	for i := range nominal {
		if nominal[i] != virtual[i] {
			t.Errorf("sample %d reported t=%v but fired at virtual time %v", i, nominal[i], virtual[i])
		}
	}
	if nominal[0] != 3*delta+delta {
		t.Errorf("first mid-run sample at %v, want %v", nominal[0], 3*delta+delta)
	}
}

// TestSamplePeriodicNominalGrid checks that sample callbacks receive the
// nominal grid times phase + k·interval, the property that lets repeated
// live runs be averaged pointwise.
func TestSamplePeriodicNominalGrid(t *testing.T) {
	host, err := runtime.NewHost(newSimEnv(t, 20, 2), hostConfig(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	host.SamplePeriodic(delta, delta, func(ts float64) { times = append(times, ts) })
	if err := host.Run(5 * delta); err != nil {
		t.Fatal(err)
	}
	if len(times) != 5 {
		t.Fatalf("got %d samples, want 5", len(times))
	}
	want := delta
	for i, ts := range times {
		if ts != want {
			t.Errorf("sample %d at %v, want %v", i, ts, want)
		}
		want += delta
	}
}

// sliceSource replays a fixed list of arrival times, +Inf afterwards.
type sliceSource struct {
	times []float64
	i     int
}

func (s *sliceSource) Next() float64 {
	if s.i >= len(s.times) {
		return math.Inf(1)
	}
	t := s.times[s.i]
	s.i++
	return t
}

// TestScheduleArrivalsFiresAtSourceTimes checks that the arrival chain fires
// fn exactly at the source's times, in order, and stops when the source is
// exhausted.
func TestScheduleArrivalsFiresAtSourceTimes(t *testing.T) {
	env := newSimEnv(t, 20, 3)
	host, err := runtime.NewHost(env, hostConfig(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 40, 40, 333.25, 700}
	var got []float64
	host.ScheduleArrivals(&sliceSource{times: want}, func() bool {
		got = append(got, env.Now())
		return true
	})
	if err := host.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestScheduleArrivalsStopsOnFalse checks that fn returning false cancels
// the rest of the process.
func TestScheduleArrivalsStopsOnFalse(t *testing.T) {
	env := newSimEnv(t, 20, 3)
	host, err := runtime.NewHost(env, hostConfig(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	host.ScheduleArrivals(&sliceSource{times: []float64{1, 2, 3, 4, 5}}, func() bool {
		fired++
		return fired < 3
	})
	if err := host.Run(100); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3 (stopped by fn)", fired)
	}
}

// TestScheduleArrivalsClampsDecreasingSource checks the defence against a
// source that violates the non-decreasing contract: times never go backwards.
func TestScheduleArrivalsClampsDecreasingSource(t *testing.T) {
	env := newSimEnv(t, 20, 3)
	host, err := runtime.NewHost(env, hostConfig(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	host.ScheduleArrivals(&sliceSource{times: []float64{10, 5, 20}}, func() bool {
		got = append(got, env.Now())
		return true
	})
	if err := host.Run(100); err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 10, 20}
	if len(got) != len(want) {
		t.Fatalf("fired %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestScheduleArrivalsMatchesEveryLoop checks that an interval arrival chain
// fires at the same virtual times as the runtime's Every loop with the same
// spacing — the property that keeps the generic workload path aligned with
// the paper's hardcoded injection drip.
func TestScheduleArrivalsMatchesEveryLoop(t *testing.T) {
	const every = delta / 10
	run := func(schedule func(h *runtime.Host, record func() bool)) []float64 {
		env := newSimEnv(t, 20, 3)
		host, err := runtime.NewHost(env, hostConfig(t, 20))
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		schedule(host, func() bool {
			times = append(times, env.Now())
			return true
		})
		if err := host.Run(40 * delta); err != nil {
			t.Fatal(err)
		}
		return times
	}
	viaEvery := run(func(h *runtime.Host, record func() bool) {
		h.Env().Every(every, every, record)
	})
	src := &sliceSource{}
	next := 0.0
	for i := 0; i < 1000; i++ {
		next += every
		src.times = append(src.times, next)
	}
	viaChain := run(func(h *runtime.Host, record func() bool) {
		h.ScheduleArrivals(src, record)
	})
	if len(viaEvery) != len(viaChain) {
		t.Fatalf("every fired %d, chain fired %d", len(viaEvery), len(viaChain))
	}
	for i := range viaEvery {
		if viaEvery[i] != viaChain[i] {
			t.Fatalf("firing %d: every at %v, chain at %v (must be bit-identical)", i, viaEvery[i], viaChain[i])
		}
	}
}

// TestInjectionsSkippedCounter checks the skipped-injection accounting.
func TestInjectionsSkippedCounter(t *testing.T) {
	host, err := runtime.NewHost(newSimEnv(t, 20, 3), hostConfig(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	if got := host.InjectionsSkipped(); got != 0 {
		t.Fatalf("fresh host reports %d skipped injections", got)
	}
	host.SkipInjection()
	host.SkipInjection()
	if got := host.InjectionsSkipped(); got != 2 {
		t.Fatalf("InjectionsSkipped = %d, want 2", got)
	}
}

// TestHostBytesAccounting checks the byte-level load accounting: the paper
// applications' kinds weigh exactly one byte — so for them BytesSent equals
// MessagesSent, keeping their numbers byte-identical to the pre-accounting
// ones — while a blockcast message counts its protocol.PayloadSize into the
// total, into the sending node's tally and past loss lotteries (dropped
// traffic still loaded the sender's uplink).
func TestHostBytesAccounting(t *testing.T) {
	host, err := runtime.NewHost(newSimEnv(t, 30, 5), hostConfig(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Run(20 * delta); err != nil {
		t.Fatal(err)
	}
	if host.BytesSent() != host.MessagesSent() {
		t.Errorf("unsized traffic: BytesSent = %d, MessagesSent = %d, want equal",
			host.BytesSent(), host.MessagesSent())
	}
	var perNode int64
	for i := 0; i < host.N(); i++ {
		perNode += host.NodeBytes(i)
	}
	if perNode != host.BytesSent() {
		t.Errorf("per-node bytes sum to %d, total is %d", perNode, host.BytesSent())
	}

	before, beforeNode := host.BytesSent(), host.NodeBytes(3)
	host.Send(3, 4, blockcast.Msg{Kind: blockcast.MsgBlock, Height: 1, Batch: 2}.Payload())
	if got := host.BytesSent() - before; got != 700 {
		t.Errorf("a block of 2 transactions added %d bytes, want 700", got)
	}
	if got := host.NodeBytes(3) - beforeNode; got != 700 {
		t.Errorf("a block of 2 transactions added %d bytes to the sender, want 700", got)
	}

	// A host that drops everything still counts the bytes as sent.
	cfg := hostConfig(t, 20)
	cfg.Network = netmodel.Lossy{P: 1, Inner: cfg.Network}
	dropAll, err := runtime.NewHost(newSimEnv(t, 20, 6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dropAll.Send(1, 2, blockcast.Msg{Kind: blockcast.MsgPull, Height: 1}.Payload())
	if dropAll.BytesSent() != 40 || dropAll.MessagesDropped() != 1 {
		t.Errorf("dropped send: bytes = %d (want 40), dropped = %d (want 1)",
			dropAll.BytesSent(), dropAll.MessagesDropped())
	}
}

// ringPeers is a peer sampling service pointing node i at its ring successor.
type ringPeers int

func (n ringPeers) SelectPeerOf(i int, _ protocol.Rand) (protocol.NodeID, bool) {
	return protocol.NodeID((i + 1) % int(n)), true
}

// TestHostCustomPeers checks Config.Peers: every node's sends go where the
// selector points it, whatever the overlay says.
func TestHostCustomPeers(t *testing.T) {
	const n = 6
	cfg := hostConfig(t, n)
	cfg.Strategy = core.PurelyProactive{}
	cfg.Peers = ringPeers(n)
	env := newSimEnv(t, n, 4)
	host, err := runtime.NewHost(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Run(5 * delta); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Five periods, one proactive send each, all from the ring predecessor.
		if got := host.Node(i).Stats().Received; got < 4 || got > 5 {
			t.Errorf("node %d received %d messages, want one per period from its predecessor", i, got)
		}
	}
}

// edgeApp checks, on every delivery, that the message travelled an edge of
// the overlay; it sends a fixed word.
type edgeApp struct {
	t    *testing.T
	g    *overlay.Graph
	self int
	got  *int
}

func (a edgeApp) CreateMessage() protocol.Payload {
	return protocol.WordPayload(protocol.KindBoxed+1, 1)
}

func (a edgeApp) UpdateState(from protocol.NodeID, _ protocol.Payload) bool {
	if !slices.Contains(a.g.OutNeighbors(int(from)), int32(a.self)) {
		a.t.Errorf("node %d received from %d, which is not an in-neighbour", a.self, from)
	}
	*a.got++
	return true
}

// TestHostDefaultPeersFollowOverlay checks that a nil Config.Peers means the
// overlay sampler: every message a node sends, proactive or reactive, goes
// to one of its out-neighbours.
func TestHostDefaultPeersFollowOverlay(t *testing.T) {
	const n = 30
	cfg := hostConfig(t, n)
	got := 0
	cfg.NewApp = func(i int) protocol.Application { return edgeApp{t: t, g: cfg.Graph, self: i, got: &got} }
	host, err := runtime.NewHost(newSimEnv(t, n, 6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Run(10 * delta); err != nil {
		t.Fatal(err)
	}
	if got == 0 || int64(got) != host.MessagesDelivered() {
		t.Errorf("apps saw %d deliveries, host counted %d", got, host.MessagesDelivered())
	}
}

// TestAuditCountsInitialTokens is the regression test for the audit bound of
// a node that starts with a₀ tokens: it may burst max(C, a₀) messages on top
// of one per period, not C. Before the fix the envelope was sized with C
// alone and flagged the legitimate start-up burst.
func TestAuditCountsInitialTokens(t *testing.T) {
	tests := []struct {
		name          string
		strategy      core.Strategy
		initialTokens int
		burst         int
	}{
		{"a0 above C = 0", core.PurelyProactive{}, 5, 5},
		{"a0 above C", core.MustSimple(2), 4, 4},
		{"a0 below C", core.MustSimple(3), 1, 1},
		{"no initial tokens", core.MustSimple(3), 0, 0},
	}
	for _, tc := range tests {
		cfg := hostConfig(t, 8)
		cfg.Strategy = tc.strategy
		cfg.InitialTokens = tc.initialTokens
		cfg.Audit = true
		env := newSimEnv(t, 8, 8)
		host, err := runtime.NewHost(env, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Spend the whole initial balance in one instant, the way a daemon
		// answers a burst of rejoin pulls.
		sent := 0
		env.At(delta/1000, func() {
			for host.Node(0).RespondDirect(1) {
				sent++
			}
		})
		if err := host.Run(3 * delta); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sent != tc.burst {
			t.Errorf("%s: burst of %d, want %d", tc.name, sent, tc.burst)
		}
		if got := host.AuditViolations(); len(got) != 0 {
			t.Errorf("%s: audit violations %v on a legitimate start-up burst", tc.name, got)
		}
	}
}

// onlineCount counts the host's online nodes.
func onlineCount(h *runtime.Host) int {
	count := 0
	for i := 0; i < h.N(); i++ {
		if h.Online(i) {
			count++
		}
	}
	return count
}
