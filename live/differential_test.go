package live_test

import (
	"math"
	"testing"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/simnet"
)

// The differential tests below run one configuration on simnet.Env and on an
// in-process live.Env whose clock is virtual: with wall-clock pacing out of
// the way, live.Env is the same engine under the same Host, so every result
// must be identical, not merely close.

var diffStrategies = []string{"proactive", "simple:10", "generalized:5:10", "randomized:5:10", "reactive:2"}

// virtualLive is the in-process live runtime on the virtual clock.
type virtualLive struct{}

func (virtualLive) Name() string { return "live-virtual" }

func (virtualLive) NewEnv(cfg experiment.Config, seed uint64) (runtime.Env, error) {
	return live.NewVirtualEnv(live.EnvConfig{N: cfg.N, Seed: seed})
}

func diffConfig(t *testing.T, app, strategy, scenario, network string, n int) experiment.Config {
	t.Helper()
	cfg := experiment.Config{N: n, Rounds: 40, Seed: 11, TrackTokens: true}
	var err error
	if cfg.App, err = experiment.ParseApplication(app); err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy, err = experiment.ParseStrategySpec(strategy); err != nil {
		t.Fatal(err)
	}
	if cfg.Scenario, err = experiment.ParseScenario(scenario); err != nil {
		t.Fatal(err)
	}
	if cfg.Network, err = experiment.ParseNetwork(network); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// same reports whether a and b are the same float, NaN included.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !same(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameSeries(a, b *metrics.Series) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameFloats(a.Times, b.Times) && sameFloats(a.Values, b.Values)
}

// TestVirtualLiveMatchesSim runs experiment.Run on sim and on virtual-clock
// live over all four applications × the five strategy families × two
// scenarios × four networks; every combination the experiment accepts must
// give identical results.
func TestVirtualLiveMatchesSim(t *testing.T) {
	compared := 0
	for _, app := range []string{"push-gossip", "gossip-learning", "chaotic-iteration", "blockcast"} {
		for _, strategy := range diffStrategies {
			for _, scenario := range []string{"failure-free", "smartphone-trace"} {
				for _, network := range []string{"constant", "zones:4:0.5:3", "lossy:0.05:uniform:1:3", "exponential:1.728"} {
					cfg := diffConfig(t, app, strategy, scenario, network, 150)
					want, simErr := experiment.Run(cfg)
					cfg.Runtime = virtualLive{}
					got, liveErr := experiment.Run(cfg)
					name := app + "/" + strategy + "/" + scenario + "/" + network
					switch {
					case simErr != nil || liveErr != nil:
						if simErr == nil || liveErr == nil || simErr.Error() != liveErr.Error() {
							t.Errorf("%s: sim error %v, live error %v", name, simErr, liveErr)
						}
						continue
					case !sameSeries(got.Metric, want.Metric):
						t.Errorf("%s: metric differs", name)
					case !sameSeries(got.Tokens, want.Tokens):
						t.Errorf("%s: tokens differ", name)
					case got.MessagesSent != want.MessagesSent || got.BytesSent != want.BytesSent:
						t.Errorf("%s: sent %v messages, %v bytes; sim %v, %v", name, got.MessagesSent, got.BytesSent, want.MessagesSent, want.BytesSent)
					case got.InjectionsSkipped != want.InjectionsSkipped:
						t.Errorf("%s: %v injections skipped, sim %v", name, got.InjectionsSkipped, want.InjectionsSkipped)
					case !sameFloats(got.Summary, want.Summary):
						t.Errorf("%s: summary %v, sim %v", name, got.Summary, want.Summary)
					}
					compared++
				}
			}
		}
	}
	// Chaotic iteration rejects churn: 4·5·2·4 combinations less its 5·4.
	if compared != 140 {
		t.Errorf("compared %d configurations, want 140", compared)
	}
}

// sendRecord is one message as the Host hands it to its environment.
type sendRecord struct {
	at       float64
	from, to protocol.NodeID
	kind     protocol.PayloadKind
	word     uint64
	delay    float64
}

// sendLog records every SendDelayed of the environment it wraps.
type sendLog struct {
	runtime.Env
	sends []sendRecord
}

func (l *sendLog) SendDelayed(from, to protocol.NodeID, p protocol.Payload, delay float64) {
	l.sends = append(l.sends, sendRecord{l.Now(), from, to, p.Kind, p.Word, delay})
	l.Env.SendDelayed(from, to, p, delay)
}

// must returns v, panicking on an error: the assembly of a configuration
// that experiment.Run accepts cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// hostRun assembles one repetition of cfg over env as experiment.Run does,
// runs it to the horizon and returns every node's Stats and the send log.
func hostRun(t *testing.T, cfg experiment.Config, env runtime.Env) ([]protocol.Stats, []sendRecord) {
	t.Helper()
	defer env.Close()
	cfg = cfg.WithDefaults()
	seed := cfg.Seed
	graph := must(cfg.App.BuildOverlay(cfg, seed))
	trace := must(cfg.Scenario.BuildTrace(cfg, seed))
	run := must(cfg.App.NewRun(cfg, graph))
	log := &sendLog{Env: env}
	hostCfg := runtime.Config{
		Graph:    graph,
		Strategy: must(cfg.Strategy.Build()),
		NewApp:   run.NewApp,
		Delta:    cfg.Delta,
		Trace:    trace,
		Network:  must(cfg.Network.Model(cfg)),
	}
	if rh, ok := run.(experiment.RejoinHandler); ok && trace != nil {
		hostCfg.OnRejoin = rh.OnRejoin
	}
	host := must(runtime.NewHost(log, hostCfg))
	if s, ok := run.(experiment.RunStarter); ok {
		s.Start(&experiment.RunContext{
			Config:     cfg,
			Seed:       seed,
			Graph:      graph,
			Trace:      trace,
			Host:       host,
			Online:     host.Online,
			Arrivals:   must(cfg.Workload.Arrivals(cfg, seed)),
			OnlineOnly: cfg.Scenario.Churny(),
		})
	}
	if err := host.Run(cfg.Duration()); err != nil {
		t.Fatal(err)
	}
	stats := make([]protocol.Stats, host.N())
	for i := range stats {
		stats[i] = host.Node(i).Stats()
	}
	return stats, log.sends
}

// sameRuns compares two runs' per-node Stats and send logs.
func sameRuns(t *testing.T, name string, stats, wantStats []protocol.Stats, sends, wantSends []sendRecord) {
	t.Helper()
	for i := range wantStats {
		if stats[i] != wantStats[i] {
			t.Errorf("%s: node %d stats %+v, want %+v", name, i, stats[i], wantStats[i])
			return
		}
	}
	for i := range min(len(sends), len(wantSends)) {
		if sends[i] != wantSends[i] {
			t.Errorf("%s: send %d is %+v, want %+v", name, i, sends[i], wantSends[i])
			return
		}
	}
	if len(sends) != len(wantSends) {
		t.Errorf("%s: %d sends, want %d", name, len(sends), len(wantSends))
	}
}

// TestVirtualLiveIsDeterministic runs one 64-node configuration twice on
// virtual-clock live: the per-node Stats and send logs must be identical.
func TestVirtualLiveIsDeterministic(t *testing.T) {
	cfg := diffConfig(t, "push-gossip", "randomized:5:10", "smartphone-trace", "zones:4:0.5:3", 64)
	stats, sends := hostRun(t, cfg, must(live.NewVirtualEnv(live.EnvConfig{N: 64, Seed: cfg.Seed})))
	again, againSends := hostRun(t, cfg, must(live.NewVirtualEnv(live.EnvConfig{N: 64, Seed: cfg.Seed})))
	if len(sends) == 0 {
		t.Fatal("the run sent nothing")
	}
	sameRuns(t, "second run", again, stats, againSends, sends)
}

// TestVirtualLiveMatchesSimPerNode compares virtual-clock live with
// simnet.Env node by node and message by message: push gossip and gossip
// learning × the five strategy families × two scenarios × two networks.
// Pure reactive strategies start from empty accounts and send nothing; the
// other families must.
func TestVirtualLiveMatchesSimPerNode(t *testing.T) {
	for _, app := range []string{"push-gossip", "gossip-learning"} {
		for _, strategy := range diffStrategies {
			for _, scenario := range []string{"failure-free", "smartphone-trace"} {
				for _, network := range []string{"constant", "zones:4:0.5:3"} {
					cfg := diffConfig(t, app, strategy, scenario, network, 150)
					envCfg := live.EnvConfig{N: cfg.N, Seed: cfg.Seed}
					wantStats, wantSends := hostRun(t, cfg, must(simnet.NewEnv(simnet.EnvConfig{N: cfg.N, Seed: cfg.Seed})))
					stats, sends := hostRun(t, cfg, must(live.NewVirtualEnv(envCfg)))
					name := app + "/" + strategy + "/" + scenario + "/" + network
					if len(wantSends) == 0 && strategy != "reactive:2" {
						t.Errorf("%s: the run sent nothing", name)
					}
					sameRuns(t, name, stats, wantStats, sends, wantSends)
				}
			}
		}
	}
}

// TestVirtualLiveEveryBetweenRunsMatchesSim starts a periodic event between
// two runs, after the engine's last event: it must fire at the same run
// times in both environments, one interval after the clock and not a burst
// of catch-up repetitions from the engine's last event.
func TestVirtualLiveEveryBetweenRunsMatchesSim(t *testing.T) {
	fires := func(env runtime.Env) []float64 {
		defer env.Close()
		var got []float64
		env.At(1, func() {})
		if err := env.Run(10); err != nil {
			t.Fatal(err)
		}
		env.Every(1, 1, func() bool { got = append(got, env.Now()); return true })
		if err := env.Run(15); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := fires(must(simnet.NewEnv(simnet.EnvConfig{N: 1})))
	got := fires(must(live.NewVirtualEnv(live.EnvConfig{N: 1})))
	if len(want) != 5 || len(got) != len(want) {
		t.Fatalf("live fired at %v, sim at %v; want 5 firings each", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("live fired at %v, sim at %v", got, want)
		}
	}
}
