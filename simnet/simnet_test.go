package simnet

import (
	"math"
	"testing"

	"github.com/szte-dcs/tokenaccount/apps/blockcast"
	"github.com/szte-dcs/tokenaccount/apps/gossiplearning"
	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	hostrt "github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/trace"
)

// walkerDelay is the transfer delay of walkerConfig's network.
const walkerDelay = 1

// walkerConfig is the assembly most tests here share: gossip learning
// walkers on a random 10-out overlay, Δ = 100 and a transfer delay of
// walkerDelay.
func walkerConfig(t *testing.T, n int, strategy core.Strategy, seed uint64) (EnvConfig, hostrt.Config) {
	t.Helper()
	g, err := overlay.RandomKOut(n, 10, seed)
	if err != nil {
		t.Fatal(err)
	}
	return EnvConfig{N: n, Seed: seed}, hostrt.Config{
		Graph:    g,
		Strategy: strategy,
		NewApp:   func(int) protocol.Application { return &gossiplearning.Walker{} },
		Delta:    100,
		Network:  netmodel.Constant{D: walkerDelay},
	}
}

// assemble builds a Host over a fresh discrete-event environment.
func assemble(envCfg EnvConfig, cfg hostrt.Config) (*Env, *hostrt.Host, error) {
	env, err := NewEnv(envCfg)
	if err != nil {
		return nil, nil, err
	}
	host, err := hostrt.NewHost(env, cfg)
	return env, host, err
}

// mustAssemble is assemble for configurations that must be accepted.
func mustAssemble(t *testing.T, envCfg EnvConfig, cfg hostrt.Config) (*Env, *hostrt.Host) {
	t.Helper()
	env, host, err := assemble(envCfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, host
}

// mustRun advances the host to the given time.
func mustRun(t *testing.T, host *hostrt.Host, until float64) {
	t.Helper()
	if err := host.Run(until); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	envCfg, valid := walkerConfig(t, 20, core.PurelyProactive{}, 1)
	if _, _, err := assemble(envCfg, valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(e *EnvConfig, c *hostrt.Config){
		func(_ *EnvConfig, c *hostrt.Config) { c.Graph = nil },
		func(_ *EnvConfig, c *hostrt.Config) { c.Strategy = nil },
		func(_ *EnvConfig, c *hostrt.Config) { c.NewApp = nil },
		func(_ *EnvConfig, c *hostrt.Config) { c.Delta = 0 },
		func(e *EnvConfig, _ *hostrt.Config) { e.TransferDelay = -1 },
		func(_ *EnvConfig, c *hostrt.Config) { c.InitialTokens = -1 },
		func(_ *EnvConfig, c *hostrt.Config) { c.Trace = trace.AlwaysOnline(5, 100) }, // too few nodes
		func(_ *EnvConfig, c *hostrt.Config) { c.NewApp = func(int) protocol.Application { return nil } },
	}
	for i, mutate := range mutations {
		envCfg, cfg := walkerConfig(t, 20, core.PurelyProactive{}, 1)
		mutate(&envCfg, &cfg)
		if _, _, err := assemble(envCfg, cfg); err == nil {
			t.Errorf("broken config %d accepted", i)
		}
	}
}

func TestProactiveNetworkSendsOnePerRound(t *testing.T) {
	envCfg, cfg := walkerConfig(t, 50, core.PurelyProactive{}, 2)
	_, net := mustAssemble(t, envCfg, cfg)
	const rounds = 20
	mustRun(t, net, rounds*cfg.Delta)
	// Every node ticks once per Δ (random phase), so the total message count
	// equals N × rounds exactly for the purely proactive strategy.
	if got := net.MessagesSent(); got != 50*rounds {
		t.Errorf("MessagesSent = %d, want %d", got, 50*rounds)
	}
	if net.MessagesDropped() != 0 {
		t.Errorf("MessagesDropped = %d, want 0", net.MessagesDropped())
	}
	if net.MessagesDelivered() == 0 {
		t.Error("no messages delivered")
	}
	stats := net.TotalStats()
	if stats.ProactiveSent != 50*rounds || stats.ReactiveSent != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if onlineCount(net) != 50 {
		t.Errorf("online nodes: %d", onlineCount(net))
	}
}

func TestCommunicationBudgetIsStrategyIndependent(t *testing.T) {
	// The core claim of the paper: all bounded token account strategies keep
	// the same long-run communication budget (one message per node per Δ).
	const n, rounds = 60, 60
	strategies := []core.Strategy{
		core.PurelyProactive{},
		core.MustSimple(10),
		core.MustGeneralized(5, 10),
		core.MustRandomized(5, 10),
	}
	budget := float64(n * rounds)
	for _, s := range strategies {
		envCfg, cfg := walkerConfig(t, n, s, 3)
		_, net := mustAssemble(t, envCfg, cfg)
		mustRun(t, net, rounds*cfg.Delta)
		sent := float64(net.MessagesSent())
		// The budget can be undershot by at most C unspent tokens per node
		// plus stochastic slack; it can never be exceeded.
		if sent > budget+1 {
			t.Errorf("%s: sent %v messages, exceeds budget %v", s.Name(), sent, budget)
		}
		if sent < 0.5*budget {
			t.Errorf("%s: sent %v messages, far below budget %v", s.Name(), sent, budget)
		}
	}
}

func TestTokenAccountSpeedsUpGossipLearning(t *testing.T) {
	// Qualitative reproduction of the headline result: the randomized token
	// account makes models walk much faster than the proactive baseline at
	// the same budget.
	const n, rounds = 100, 50
	run := func(s core.Strategy) float64 {
		envCfg, cfg := walkerConfig(t, n, s, 7)
		_, net := mustAssemble(t, envCfg, cfg)
		horizon := float64(rounds) * cfg.Delta
		mustRun(t, net, horizon)
		walkers := make([]*gossiplearning.Walker, n)
		for i := 0; i < n; i++ {
			walkers[i] = net.App(i).(*gossiplearning.Walker)
		}
		return gossiplearning.Progress(walkers, horizon, walkerDelay)
	}
	proactive := run(core.PurelyProactive{})
	randomized := run(core.MustRandomized(5, 10))
	if proactive <= 0 || randomized <= 0 {
		t.Fatalf("progress values %v, %v should be positive", proactive, randomized)
	}
	if randomized < 2*proactive {
		t.Errorf("randomized progress %v not clearly faster than proactive %v", randomized, proactive)
	}
}

func TestRateLimitAuditAcrossNetwork(t *testing.T) {
	envCfg, cfg := walkerConfig(t, 40, core.MustGeneralized(1, 20), 11)
	cfg.Audit = true
	_, net := mustAssemble(t, envCfg, cfg)
	mustRun(t, net, 80*cfg.Delta)
	if violations := net.AuditViolations(); len(violations) != 0 {
		t.Errorf("rate limit violations: %v", violations)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, float64) {
		envCfg, cfg := walkerConfig(t, 40, core.MustRandomized(5, 10), 13)
		_, net := mustAssemble(t, envCfg, cfg)
		mustRun(t, net, 30*cfg.Delta)
		return net.MessagesSent(), net.AverageTokens(false)
	}
	sent1, tokens1 := run()
	sent2, tokens2 := run()
	if sent1 != sent2 || tokens1 != tokens2 {
		t.Errorf("runs with equal seeds differ: (%d,%v) vs (%d,%v)", sent1, tokens1, sent2, tokens2)
	}
}

func TestChurnDropsMessagesAndTracksOnline(t *testing.T) {
	const n = 30
	g, err := overlay.RandomKOut(n, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Half the nodes are online only for the first half of the run.
	tr := &trace.Trace{Duration: 1000, Segments: make([]trace.Segment, n)}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			tr.Segments[i].Intervals = []trace.Interval{{Start: 0, End: 1000}}
		} else {
			tr.Segments[i].Intervals = []trace.Interval{{Start: 0, End: 500}}
		}
	}
	env, net := mustAssemble(t, EnvConfig{N: n, Seed: 17}, hostrt.Config{
		Graph:    g,
		Strategy: core.MustSimple(5),
		NewApp:   func(int) protocol.Application { return pushgossip.New() },
		Delta:    50,
		Trace:    tr,
		Network:  netmodel.Constant{D: 1},
	})
	// Inject updates periodically at node 0 so there is reactive traffic.
	seq := int64(0)
	net.SamplePeriodic(10, 25, func(float64) {
		net.App(0).(*pushgossip.State).Inject(seq)
		seq++
	})
	// Put a message in flight to node 1 just before it goes offline at t=500:
	// it must be dropped at delivery time.
	env.At(499.5, func() {
		net.Send(0, 1, pushgossip.Update{Seq: 999}.Payload())
	})
	mustRun(t, net, 1000)
	if onlineCount(net) != n/2 {
		t.Errorf("online nodes: %d, want %d", onlineCount(net), n/2)
	}
	if !net.Online(0) || net.Online(1) {
		t.Error("online flags wrong after churn")
	}
	if net.MessagesDropped() == 0 {
		t.Error("the in-flight message to an offline node was not dropped")
	}
	received := net.App(1).(*pushgossip.State).Seq()
	if received == 999 {
		t.Error("offline node received the dropped update")
	}
	// Offline nodes must not have accumulated rounds after they left.
	offlineStats := net.Node(1).Stats()
	if offlineStats.Rounds > 11 {
		t.Errorf("offline node executed %d rounds, want ≈ 10 (only while online)", offlineStats.Rounds)
	}
}

func TestOnRejoinHookFires(t *testing.T) {
	const n = 10
	g, err := overlay.RandomKOut(n, 3, 19)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Duration: 300, Segments: make([]trace.Segment, n)}
	for i := 0; i < n; i++ {
		tr.Segments[i].Intervals = []trace.Interval{{Start: 0, End: 300}}
	}
	// Node 3 joins late.
	tr.Segments[3].Intervals = []trace.Interval{{Start: 100, End: 300}}
	rejoined := []int{}
	_, net := mustAssemble(t, EnvConfig{N: n, Seed: 19}, hostrt.Config{
		Graph:    g,
		Strategy: core.MustSimple(3),
		NewApp:   func(int) protocol.Application { return pushgossip.New() },
		Delta:    10,
		Trace:    tr,
		OnRejoin: func(_ *hostrt.Host, node int) { rejoined = append(rejoined, node) },
		Network:  netmodel.Constant{D: 0.1},
	})
	mustRun(t, net, 300)
	if len(rejoined) != 1 || rejoined[0] != 3 {
		t.Errorf("rejoined = %v, want [3]", rejoined)
	}
}

func TestRandomOnlineHelpers(t *testing.T) {
	envCfg, cfg := walkerConfig(t, 20, core.PurelyProactive{}, 23)
	_, net := mustAssemble(t, envCfg, cfg)
	if _, ok := net.RandomOnlineNode(); !ok {
		t.Error("RandomOnlineNode failed with everyone online")
	}
	if _, ok := net.RandomOnlineNeighbor(0); !ok {
		t.Error("RandomOnlineNeighbor failed with everyone online")
	}
	// Force everyone offline and check the helpers report failure.
	for i := 0; i < net.N(); i++ {
		net.SetOffline(i)
	}
	if _, ok := net.RandomOnlineNode(); ok {
		t.Error("RandomOnlineNode succeeded with everyone offline")
	}
	if _, ok := net.RandomOnlineNeighbor(0); ok {
		t.Error("RandomOnlineNeighbor succeeded with everyone offline")
	}
	if net.AverageTokens(true) != 0 {
		t.Error("AverageTokens(onlineOnly) with no online nodes should be 0")
	}
}

func TestAverageTokensApproachesPrediction(t *testing.T) {
	// §4.3: for the randomized strategy the equilibrium balance is
	// approximately A·C/(C+1) ≈ A. Use gossip learning where most messages
	// are useful.
	const n = 80
	a, c := 5, 10
	envCfg, cfg := walkerConfig(t, n, core.MustRandomized(a, c), 29)
	_, net := mustAssemble(t, envCfg, cfg)
	mustRun(t, net, 300*cfg.Delta)
	got := net.AverageTokens(false)
	predicted := float64(a) * float64(c) / float64(c+1)
	if math.Abs(got-predicted) > 2.5 {
		t.Errorf("average tokens = %v, mean-field prediction %v", got, predicted)
	}
}

// TestSteadyStateMessagePathAllocs is the end-to-end allocation guard of the
// simulator: once a network has warmed up (event slab, scratch buffers and
// token balances at their high-water marks), advancing the simulation —
// proactive ticks, typed deliveries, Receive handlers and reactive sends
// included — must not allocate at all. The rows add the network models'
// sampled delays (exponential; the lossy lognormal of the churn workload,
// whose Drop runs on every send; zones) and a 2-shard ShardedEnv on zones,
// whose shard workers, outboxes and barriers run on other goroutines (the
// malloc counter is process-wide, so they count). Every row runs once more
// under a smartphone churn trace (-churn), so peers are drawn among online
// neighbours only and nodes leave and rejoin during the measured rounds.
func TestSteadyStateMessagePathAllocs(t *testing.T) {
	lossy := netmodel.Lossy{P: 0.01, Inner: netmodel.LogNormal{Mu: 0.547, Sigma: 0.5}}
	zones := netmodel.Zones{K: 8, Intra: 0.5, Inter: 3}
	rows := []struct {
		name    string
		network netmodel.Model
		shards  int
		churn   bool
	}{
		{"constant", netmodel.Constant{D: walkerDelay}, 1, false},
		{"constant-churn", netmodel.Constant{D: walkerDelay}, 1, true},
		{"exponential:1", netmodel.Exponential{Mean: 1}, 1, false},
		{"exponential:1-churn", netmodel.Exponential{Mean: 1}, 1, true},
		{lossy.String(), lossy, 1, false},
		{lossy.String() + "-churn", lossy, 1, true},
		{zones.String(), zones, 1, false},
		{zones.String() + "-churn", zones, 1, true},
		{zones.String() + "-shards=2", zones, 2, false},
		{zones.String() + "-shards=2-churn", zones, 2, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			const n = 200
			envCfg, cfg := walkerConfig(t, n, core.MustRandomized(5, 10), 4)
			cfg.Network = row.network
			if row.churn {
				tr, err := trace.Smartphone(trace.DefaultSmartphoneConfig(n, 4))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Trace = tr
			}
			net := steadyStateHost(t, envCfg, cfg, row.shards)
			horizon := 50 * cfg.Delta
			mustRun(t, net, horizon) // warm up to the steady state
			sent, online := net.MessagesSent(), onlineCount(net)
			flips := 0
			allocs := testing.AllocsPerRun(30, func() {
				horizon += cfg.Delta
				mustRun(t, net, horizon)
				if c := onlineCount(net); c != online {
					flips, online = flips+1, c
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state round allocates %.1f, want 0", allocs)
			}
			if net.MessagesSent() == sent {
				t.Error("the measured rounds sent no message")
			}
			if row.churn && (online == n || flips == 0) {
				t.Errorf("churn row: %d of %d online after the run, online count changed in %d rounds; want churn", online, n, flips)
			}
		})
	}
}

// steadyStateHost assembles a Host over a plain Env, or over a ShardedEnv
// split by netmodel.PlanShards when shards > 1.
func steadyStateHost(t *testing.T, envCfg EnvConfig, cfg hostrt.Config, shards int) *hostrt.Host {
	t.Helper()
	if shards == 1 {
		_, host := mustAssemble(t, envCfg, cfg)
		return host
	}
	shardOf, lookahead, err := netmodel.PlanShards(cfg.Network, envCfg.N, shards)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewShardedEnv(ShardedEnvConfig{
		N: envCfg.N, Seed: envCfg.Seed,
		Shards: shards, ShardOf: shardOf, Lookahead: lookahead,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	host, err := hostrt.NewHost(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return host
}

// blockcastNet backs blockcast.Net with a Host, as the experiment driver
// does: pulls are free sends, block answers are token-gated responses.
type blockcastNet struct{ host *hostrt.Host }

func (n *blockcastNet) Send(from, to protocol.NodeID, p protocol.Payload) {
	n.host.Send(from, to, p)
}

func (n *blockcastNet) Respond(from, to protocol.NodeID, p protocol.Payload) bool {
	return n.host.Node(int(from)).RespondPayload(to, p)
}

// TestBlockcastMessagePathAllocs is the allocation guard of the blockcast
// path over a real Host and Env: word-encoded announce/pull/block gossip,
// token-gated block answers, per-kind byte accounting, and the run-global
// loops of the experiment driver — ten transaction arrivals per period, a
// rotating proposer each period, a commit scan every quarter period. After
// warm-up a period allocates nothing.
func TestBlockcastMessagePathAllocs(t *testing.T) {
	const n = 200
	envCfg, cfg := walkerConfig(t, n, core.MustRandomized(5, 10), 4)
	env, err := NewEnv(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	net := &blockcastNet{}
	states := blockcast.NewStates(n, net)
	cfg.NewApp = func(i int) protocol.Application { return &states[i] }
	host, err := hostrt.NewHost(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.host = host
	chain, err := blockcast.NewChain(64, 2.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	head := func(i int) uint64 {
		h, _ := states[i].Head()
		return h
	}
	delta := cfg.Delta
	env.Every(delta/10, delta/10, func() bool {
		chain.Submit(1)
		return true
	})
	env.Every(delta/4, delta/4, func() bool {
		chain.CheckCommits(env.Now(), n, head, nil)
		return true
	})
	round := 0
	env.Every(delta, delta, func() bool {
		chain.TryPropose(env.Now(), &states[round%n])
		round++
		return true
	})
	horizon := 50 * delta
	mustRun(t, host, horizon)
	commits, sent, bytes := chain.Latency.N(), host.MessagesSent(), host.BytesSent()
	allocs := testing.AllocsPerRun(30, func() {
		horizon += delta
		mustRun(t, host, horizon)
	})
	if allocs != 0 {
		t.Errorf("steady-state blockcast period allocates %.1f, want 0", allocs)
	}
	if chain.Latency.N() == commits {
		t.Error("no block committed in the measured periods")
	}
	// Pulls weigh 40 B, announces 96 B and block answers 200 B plus
	// 250 B per transaction (protocol.PayloadSize): a mean above an
	// announce's weight needs token-gated block answers.
	announce := int64(protocol.PayloadSize(blockcast.Msg{Kind: blockcast.MsgAnnounce}.Payload()))
	if dm, db := host.MessagesSent()-sent, host.BytesSent()-bytes; dm == 0 || db <= announce*dm {
		t.Errorf("measured periods sent %d messages weighing %d bytes, want more than %d B each on average", dm, db, announce)
	}
}

// onlineCount counts the host's online nodes.
func onlineCount(h *hostrt.Host) int {
	count := 0
	for i := 0; i < h.N(); i++ {
		if h.Online(i) {
			count++
		}
	}
	return count
}
