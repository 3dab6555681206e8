package simnet_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/simnet"
)

// plainHook forwards RunHook only, so a hook behind it has no
// runtime.LookaheadHook capability.
type plainHook struct{ runtime.Hook }

// aheadHook forwards both RunHook and Lookahead, counting the batches.
type aheadHook struct {
	runtime.LookaheadHook
	calls *atomic.Int64
}

func (h *aheadHook) Lookahead(nodes []int32) uint64 {
	h.calls.Add(1)
	return h.LookaheadHook.Lookahead(nodes)
}

// hookWrapper hands out one wrapper per hook, so the environment sees a
// stable hook identity: an aheadHook where expose is set and the hook has
// the lookahead capability, a plainHook otherwise. Hooks register during
// assembly; shard workers look them up concurrently afterwards.
type hookWrapper struct {
	expose bool
	calls  atomic.Int64

	mu    sync.Mutex
	hooks map[runtime.Hook]runtime.Hook
}

func (p *hookWrapper) wrap(h runtime.Hook) runtime.Hook {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.hooks[h]
	if !ok {
		w = &plainHook{h}
		if la, ok := h.(runtime.LookaheadHook); ok && p.expose {
			w = &aheadHook{LookaheadHook: la, calls: &p.calls}
		}
		p.hooks[h] = w
	}
	return w
}

// wrappingEnv is the sequential environment with every hook behind a
// wrapper.
type wrappingEnv struct {
	*simnet.Env
	hooks *hookWrapper
}

func (e *wrappingEnv) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.Env.AtHook(t, e.hooks.wrap(hook), node, word)
}

// wrappingShardedEnv is the sharded environment with every hook, on the
// coordinator and on the shards, behind a wrapper.
type wrappingShardedEnv struct {
	*simnet.ShardedEnv
	hooks  *hookWrapper
	shards []wrappingShard
}

func (e *wrappingShardedEnv) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.ShardedEnv.AtHook(t, e.hooks.wrap(hook), node, word)
}

func (e *wrappingShardedEnv) Shard(s int) runtime.ShardScheduler { return &e.shards[s] }

type wrappingShard struct {
	runtime.ShardScheduler
	hooks *hookWrapper
}

func (f *wrappingShard) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	f.ShardScheduler.AtHook(t, f.hooks.wrap(hook), node, word)
}

// wrappingRuntime builds the inner runtime's environment and wraps every hook
// scheduled on it: exposing its lookahead capability, or hiding it.
type wrappingRuntime struct {
	experiment.RuntimeDriver
	hooks *hookWrapper
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
// lookahead threshold — at 1, 2 and 4 shards, once with the Host's tick
// hook's lookahead capability exposed by a wrapping hook (which counts the
// batches) and once hidden by one, and requires identical results: metric
// series, message and byte counts, event counts. The lookahead only loads;
// it must never change a run. Named …Shard… so CI's sharded race soak runs
// it.
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
		run := func(rt experiment.RuntimeDriver) *experiment.Result {
			t.Helper()
			res, err := experiment.Run(experiment.Config{
				App: app, Strategy: strategy, Scenario: scenario, Network: network, Runtime: rt,
				N: 40_000, Rounds: 8, Repetitions: 1, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		expose := &hookWrapper{expose: true, hooks: map[runtime.Hook]runtime.Hook{}}
		hide := &hookWrapper{hooks: map[runtime.Hook]runtime.Hook{}}
		exposed, hidden := run(wrappingRuntime{rt, expose}), run(wrappingRuntime{rt, hide})
		if exposed.EventsProcessed == 0 || exposed.MessagesSent == 0 {
			t.Fatalf("shards=%d: the run did no work", shards)
		}
		if expose.calls.Load() == 0 || hide.calls.Load() != 0 {
			t.Fatalf("shards=%d: %d lookahead batches exposed, %d hidden; want some and none", shards, expose.calls.Load(), hide.calls.Load())
		}
		if exposed.EventsProcessed != hidden.EventsProcessed || exposed.MessagesSent != hidden.MessagesSent ||
			exposed.BytesSent != hidden.BytesSent || exposed.InjectionsSkipped != hidden.InjectionsSkipped {
			t.Fatalf("shards=%d: exposed %v events, %v messages, %v bytes, %v skipped; hidden %v, %v, %v, %v", shards,
				exposed.EventsProcessed, exposed.MessagesSent, exposed.BytesSent, exposed.InjectionsSkipped,
				hidden.EventsProcessed, hidden.MessagesSent, hidden.BytesSent, hidden.InjectionsSkipped)
		}
		if !reflect.DeepEqual(exposed.Metric, hidden.Metric) ||
			math.Float64bits(exposed.FinalMetric) != math.Float64bits(hidden.FinalMetric) {
			t.Fatalf("shards=%d: metric series differ with the lookahead hidden", shards)
		}
	}
}
