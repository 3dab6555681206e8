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

// plainHook forwards RunHook only, so a hook behind it has no
// runtime.LookaheadHook capability.
type plainHook struct{ runtime.Hook }

// aheadHook forwards both RunHook and Lookahead, counting the batches and
// checking that each leaves the nodes it names unchanged.
type aheadHook struct {
	runtime.LookaheadHook
	w *lookWrapper
}

func (h *aheadHook) Lookahead(nodes []int32) uint64 {
	h.w.tickCalls.Add(1)
	return h.w.readOnly(nodes, h.LookaheadHook.Lookahead)
}

// aheadPreloader forwards the Host's delivery preload the same way.
type aheadPreloader struct{ w *lookWrapper }

func (p *aheadPreloader) PreloadDeliveries(to []int32) uint64 {
	p.w.deliveryCalls.Add(1)
	return p.w.readOnly(to, p.w.host.PreloadDeliveries)
}

// lookWrapper exposes or hides, independently, the lookahead capability of
// the Host's hooks and its delivery preloader. It hands out one wrapper per
// hook, so the environment sees a stable hook identity: an aheadHook where
// exposeTicks is set and the hook has the lookahead capability, a plainHook
// otherwise. The preloader is installed behind an aheadPreloader where
// exposeDeliveries is set, and not at all otherwise. Hooks register during
// assembly; shard workers look them up concurrently afterwards.
type lookWrapper struct {
	exposeTicks, exposeDeliveries bool
	tickCalls, deliveryCalls      atomic.Int64

	host *runtime.Host // the preloader the Host installs: the Host itself

	mu      sync.Mutex
	hooks   map[runtime.Hook]runtime.Hook
	changed string // the first node a lookahead call changed, described
}

func newLookWrapper(ticks, deliveries bool) *lookWrapper {
	return &lookWrapper{exposeTicks: ticks, exposeDeliveries: deliveries, hooks: map[runtime.Hook]runtime.Hook{}}
}

func (p *lookWrapper) wrap(h runtime.Hook) runtime.Hook {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.hooks[h]
	if !ok {
		w = &plainHook{h}
		if la, ok := h.(runtime.LookaheadHook); ok && p.exposeTicks {
			w = &aheadHook{LookaheadHook: la, w: p}
		}
		p.hooks[h] = w
	}
	return w
}

// install takes the preloader the Host installs and returns what the
// environment gets instead: nil when deliveries are hidden.
func (p *lookWrapper) install(pl runtime.DeliveryPreloader) runtime.DeliveryPreloader {
	p.host = pl.(*runtime.Host)
	if !p.exposeDeliveries {
		return nil
	}
	return &aheadPreloader{w: p}
}

// nodeView is what a node's events read and write, as the Host shows it.
type nodeView struct {
	tokens int
	stats  protocol.Stats
	bytes  int64
}

// readOnly runs a lookahead call and records the first node it names that
// the call changed. The nodes belong to the calling shard, so reading them
// here is safe.
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

// wrappingEnv is the sequential environment with every hook and the
// delivery preloader behind a wrapper.
type wrappingEnv struct {
	*simnet.Env
	hooks *lookWrapper
}

func (e *wrappingEnv) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.Env.AtHook(t, e.hooks.wrap(hook), node, word)
}

func (e *wrappingEnv) SetDeliveryPreloader(p runtime.DeliveryPreloader) {
	e.Env.SetDeliveryPreloader(e.hooks.install(p))
}

// wrappingShardedEnv is the sharded environment with every hook, on the
// coordinator and on the shards, and the delivery preloader behind a
// wrapper.
type wrappingShardedEnv struct {
	*simnet.ShardedEnv
	hooks  *lookWrapper
	shards []wrappingShard
}

func (e *wrappingShardedEnv) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.ShardedEnv.AtHook(t, e.hooks.wrap(hook), node, word)
}

func (e *wrappingShardedEnv) SetDeliveryPreloader(p runtime.DeliveryPreloader) {
	e.ShardedEnv.SetDeliveryPreloader(e.hooks.install(p))
}

func (e *wrappingShardedEnv) Shard(s int) runtime.ShardScheduler { return &e.shards[s] }

type wrappingShard struct {
	runtime.ShardScheduler
	hooks *lookWrapper
}

func (f *wrappingShard) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	f.ShardScheduler.AtHook(t, f.hooks.wrap(hook), node, word)
}

// wrappingRuntime builds the inner runtime's environment and wraps every hook
// scheduled on it and the delivery preloader installed in it: exposing each
// lookahead capability, or hiding it.
type wrappingRuntime struct {
	experiment.RuntimeDriver
	hooks *lookWrapper
}

func (d wrappingRuntime) NewEnv(cfg experiment.Config, seed uint64) (runtime.Env, error) {
	env, err := d.RuntimeDriver.NewEnv(cfg, seed)
	if err != nil {
		return nil, err
	}
	hooks := d.hooks
	switch e := env.(type) {
	case *simnet.Env:
		return &wrappingEnv{Env: e, hooks: hooks}, nil
	case *simnet.ShardedEnv:
		h := &wrappingShardedEnv{ShardedEnv: e, hooks: hooks, shards: make([]wrappingShard, e.NumShards())}
		for s := range h.shards {
			h.shards[s] = wrappingShard{ShardScheduler: e.Shard(s), hooks: hooks}
		}
		return h, nil
	}
	_ = env.Close()
	return nil, fmt.Errorf("unexpected environment %T", env)
}

// TestShardLookaheadHiddenMatchesExposed runs a churny 40 000-node push
// gossip experiment on zones — every engine's tick lane is above the
// lookahead threshold, and so is every engine's node count — at 1, 2 and 4
// shards, under every combination of the Host's two lookahead capabilities
// exposed or hidden by wrappers: its tick hook's and its delivery
// preloader's. The wrappers count the batches and check that each leaves
// the nodes it names unchanged. All four runs must give identical results:
// metric series, message and byte counts, event counts. The lookahead only
// loads; it must never change a run. Named …Shard… so CI's sharded race
// soak runs it.
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
		rt := experiment.SimRuntimeWithOptions(shards)
		run := func(w *lookWrapper) *experiment.Result {
			t.Helper()
			res, err := experiment.Run(experiment.Config{
				App: app, Strategy: strategy, Scenario: scenario, Network: network, Runtime: wrappingRuntime{rt, w},
				N: 40_000, Rounds: 8, Repetitions: 1, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.changed != "" {
				t.Fatalf("shards=%d: a lookahead call changed %s", shards, w.changed)
			}
			for _, c := range []struct {
				name    string
				exposed bool
				calls   int64
			}{
				{"tick", w.exposeTicks, w.tickCalls.Load()},
				{"delivery", w.exposeDeliveries, w.deliveryCalls.Load()},
			} {
				if c.exposed != (c.calls > 0) {
					t.Fatalf("shards=%d: %d %s lookahead batches with the capability exposed=%v", shards, c.calls, c.name, c.exposed)
				}
			}
			return res
		}
		hidden := run(newLookWrapper(false, false))
		if hidden.EventsProcessed == 0 || hidden.MessagesSent == 0 {
			t.Fatalf("shards=%d: the run did no work", shards)
		}
		for _, w := range []*lookWrapper{newLookWrapper(true, false), newLookWrapper(false, true), newLookWrapper(true, true)} {
			exposed := run(w)
			if exposed.EventsProcessed != hidden.EventsProcessed || exposed.MessagesSent != hidden.MessagesSent ||
				exposed.BytesSent != hidden.BytesSent || exposed.InjectionsSkipped != hidden.InjectionsSkipped {
				t.Fatalf("shards=%d ticks=%v deliveries=%v: exposed %v events, %v messages, %v bytes, %v skipped; hidden %v, %v, %v, %v",
					shards, w.exposeTicks, w.exposeDeliveries,
					exposed.EventsProcessed, exposed.MessagesSent, exposed.BytesSent, exposed.InjectionsSkipped,
					hidden.EventsProcessed, hidden.MessagesSent, hidden.BytesSent, hidden.InjectionsSkipped)
			}
			if !reflect.DeepEqual(exposed.Metric, hidden.Metric) ||
				math.Float64bits(exposed.FinalMetric) != math.Float64bits(hidden.FinalMetric) {
				t.Fatalf("shards=%d ticks=%v deliveries=%v: metric series differ from the hidden run", shards, w.exposeTicks, w.exposeDeliveries)
			}
		}
	}
}

// TestLookaheadSkipsCacheResidentNetworks runs the two 5 000-node benchmark
// configurations — the paper's Fig. 2 row on the constant network, and
// smartphone churn with lossy lognormal delays and Poisson arrivals —
// shortened to 30 rounds, with both of the Host's lookahead capabilities
// exposed, and requires that neither gets a batch: 5 000 nodes fit in
// cache, so the engine hands out none.
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
		w := newLookWrapper(true, true)
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
		if ticks, deliveries := w.tickCalls.Load(), w.deliveryCalls.Load(); ticks != 0 || deliveries != 0 {
			t.Errorf("%s: %d tick and %d delivery lookahead batches at 5 000 nodes, want none", c.network, ticks, deliveries)
		}
	}
}
