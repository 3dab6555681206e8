package simnet_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
	"github.com/szte-dcs/tokenaccount/simnet"
)

// lookWrapper stands in for the Host as the environment's preloader. With
// install set it forwards every batch to the Host, counting the batches and
// checking that each leaves the nodes it names unchanged; without, the
// environment gets no preloader at all.
type lookWrapper struct {
	install bool
	calls   atomic.Int64

	host *runtime.Host // the preloader the Host installs: the Host itself

	mu      sync.Mutex
	changed string // the first node a batch changed, described
}

func newLookWrapper(install bool) *lookWrapper { return &lookWrapper{install: install} }

// set takes the preloader the Host installs and reports whether the
// environment gets the wrapper in its place.
func (p *lookWrapper) set(pl runtime.Preloader) bool {
	p.host = pl.(*runtime.Host)
	return p.install
}

func (p *lookWrapper) Preload(to []int32) uint64 {
	p.calls.Add(1)
	return p.readOnly(to, p.host.Preload)
}

// nodeView is what a node's events read and write, as the Host shows it.
type nodeView struct {
	tokens int
	stats  protocol.Stats
	bytes  int64
}

// readOnly runs a preload and records the first node it names that the
// call changed. The nodes belong to the calling shard, so reading them here
// is safe.
func (p *lookWrapper) readOnly(nodes []int32, load func([]int32) uint64) uint64 {
	view := func(i int32) nodeView {
		n := p.host.Node(int(i))
		return nodeView{n.Tokens(), n.Stats(), p.host.NodeBytes(int(i))}
	}
	var before [sim.LookaheadBatch]nodeView
	for k, i := range nodes {
		before[k] = view(i)
	}
	sum := load(nodes)
	for k, i := range nodes {
		if after := view(i); after != before[k] {
			p.mu.Lock()
			if p.changed == "" {
				p.changed = fmt.Sprintf("node %d: %+v, then %+v", i, before[k], after)
			}
			p.mu.Unlock()
		}
	}
	return sum
}

// wrappingEnv is the sequential environment with its preloader behind a
// lookWrapper.
type wrappingEnv struct {
	*simnet.Env
	w *lookWrapper
}

func (e *wrappingEnv) SetPreloader(p runtime.Preloader) {
	if e.w.set(p) {
		e.Env.SetPreloader(e.w)
	}
}

// wrappingShardedEnv is the sharded environment with its preloader behind a
// lookWrapper.
type wrappingShardedEnv struct {
	*simnet.ShardedEnv
	w *lookWrapper
}

func (e *wrappingShardedEnv) SetPreloader(p runtime.Preloader) {
	if e.w.set(p) {
		e.ShardedEnv.SetPreloader(e.w)
	}
}

// wrappingRuntime builds the inner runtime's environment with the preloader
// the Host installs in it behind a lookWrapper.
type wrappingRuntime struct {
	experiment.RuntimeDriver
	w *lookWrapper
}

func (d wrappingRuntime) NewEnv(cfg experiment.Config, seed uint64) (runtime.Env, error) {
	env, err := d.RuntimeDriver.NewEnv(cfg, seed)
	if err != nil {
		return nil, err
	}
	switch e := env.(type) {
	case *simnet.Env:
		return &wrappingEnv{Env: e, w: d.w}, nil
	case *simnet.ShardedEnv:
		return &wrappingShardedEnv{ShardedEnv: e, w: d.w}, nil
	}
	_ = env.Close()
	return nil, fmt.Errorf("unexpected environment %T", env)
}

// TestShardLookaheadHiddenMatchesExposed runs a churny 40 000-node push
// gossip experiment on zones — every engine's node count is above the
// lookahead threshold — at 1, 2 and 4 shards, with the Host's preloader
// installed in the environment and without. A wrapper counts the Host's
// batches and checks that each leaves the nodes it names unchanged; the
// tick lanes' batches go to the Host's tick hook, the lane's own preloader,
// which the wrapper does not see, but they too only run with a preloader
// installed. Both runs must give identical results: metric series, message
// and byte counts, event counts. The lookahead only loads; it must never
// change a run. Which lane kinds batch, and to which preloader, is pinned in
// package sim. Named …Shard… so CI's sharded race soak runs it.
func TestShardLookaheadHiddenMatchesExposed(t *testing.T) {
	if testing.Short() {
		t.Skip("40 000-node runs")
	}
	app, err := experiment.ParseApplication("push-gossip")
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := experiment.ParseStrategySpec("randomized:5:10")
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := experiment.ParseScenario("smartphone-trace")
	if err != nil {
		t.Fatal(err)
	}
	network, err := experiment.ParseNetwork("zones:8:0.5:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		rt, err := experiment.ParseRuntime(fmt.Sprintf("sim:shards=%d", shards))
		if err != nil {
			t.Fatal(err)
		}
		run := func(w *lookWrapper) *experiment.Result {
			t.Helper()
			res, err := experiment.Run(experiment.Config{
				App: app, Strategy: strategy, Scenario: scenario, Network: network, Runtime: wrappingRuntime{rt, w},
				N: 40_000, Rounds: 8, Repetitions: 1, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.host == nil {
				t.Fatalf("shards=%d: the Host installed no preloader", shards)
			}
			if w.changed != "" {
				t.Fatalf("shards=%d: a lookahead batch changed %s", shards, w.changed)
			}
			if calls := w.calls.Load(); w.install != (calls > 0) {
				t.Fatalf("shards=%d: %d lookahead batches with the preloader installed=%v", shards, calls, w.install)
			}
			return res
		}
		hidden := run(newLookWrapper(false))
		if hidden.EventsProcessed == 0 || hidden.MessagesSent == 0 {
			t.Fatalf("shards=%d: the run did no work", shards)
		}
		exposed := run(newLookWrapper(true))
		if exposed.EventsProcessed != hidden.EventsProcessed || exposed.MessagesSent != hidden.MessagesSent ||
			exposed.BytesSent != hidden.BytesSent || exposed.InjectionsSkipped != hidden.InjectionsSkipped {
			t.Fatalf("shards=%d: installed %v events, %v messages, %v bytes, %v skipped; none %v, %v, %v, %v",
				shards, exposed.EventsProcessed, exposed.MessagesSent, exposed.BytesSent, exposed.InjectionsSkipped,
				hidden.EventsProcessed, hidden.MessagesSent, hidden.BytesSent, hidden.InjectionsSkipped)
		}
		if !reflect.DeepEqual(exposed.Metric, hidden.Metric) ||
			math.Float64bits(exposed.FinalMetric) != math.Float64bits(hidden.FinalMetric) {
			t.Fatalf("shards=%d: metric series differ from the run without a preloader", shards)
		}
	}
}

// TestLookaheadSkipsCacheResidentNetworks runs the two 5 000-node benchmark
// configurations — the paper's Fig. 2 row on the constant network, and
// smartphone churn with lossy lognormal delays and Poisson arrivals —
// shortened to 30 rounds, with the Host's preloader installed, and
// requires that it gets no batch: 5 000 nodes fit in cache, so the engine
// hands out none.
func TestLookaheadSkipsCacheResidentNetworks(t *testing.T) {
	for _, c := range []struct{ strategy, scenario, network, workload, runtime string }{
		{"randomized:5:10", "failure-free", "constant", "interval", "sim"},
		{"generalized:5:10", "smartphone-trace", "lossy:0.01:lognormal:0.547:0.5", "poisson:0.0579", "sim:slab"},
	} {
		app, err := experiment.ParseApplication("push-gossip")
		if err != nil {
			t.Fatal(err)
		}
		strategy, err := experiment.ParseStrategySpec(c.strategy)
		if err != nil {
			t.Fatal(err)
		}
		scenario, err := experiment.ParseScenario(c.scenario)
		if err != nil {
			t.Fatal(err)
		}
		network, err := experiment.ParseNetwork(c.network)
		if err != nil {
			t.Fatal(err)
		}
		workload, err := experiment.ParseWorkload(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := experiment.ParseRuntime(c.runtime)
		if err != nil {
			t.Fatal(err)
		}
		w := newLookWrapper(true)
		res, err := experiment.Run(experiment.Config{
			App: app, Strategy: strategy, Scenario: scenario, Network: network, Workload: workload,
			Runtime: wrappingRuntime{rt, w}, N: 5000, Rounds: 30, Repetitions: 1, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.MessagesSent == 0 {
			t.Fatalf("%s: the run sent no message", c.network)
		}
		if w.host == nil {
			t.Fatalf("%s: the Host installed no preloader", c.network)
		}
		if calls := w.calls.Load(); calls != 0 {
			t.Errorf("%s: %d lookahead batches at 5 000 nodes, want none", c.network, calls)
		}
	}
}
