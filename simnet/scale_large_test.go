//go:build scale

package simnet

import (
	"testing"

	"github.com/szte-dcs/tokenaccount/apps/gossiplearning"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	hostrt "github.com/szte-dcs/tokenaccount/runtime"
)

// TestTenMillionNodeShardedRun demonstrates the 10^7-node scale record: one
// sharded run — the experiments' single-stream overlay, parallel slab
// build, conservative-window execution — completing within the reference
// container's memory. It costs minutes and several GiB, so it is opt-in:
// it only builds with the scale tag,
//
//	go test -tags scale -run TenMillionNode -timeout 30m ./simnet/
//
// and the measured peak feeds the README scale table.
func TestTenMillionNodeShardedRun(t *testing.T) {
	if raceEnabled {
		t.Skip("too slow and too large under the race detector; see race_off_test.go")
	}
	const (
		n      = 10_000_000
		delta  = 172.8
		shards = 2
	)
	g, err := overlay.RandomKOut(n, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := netmodel.Zones{K: 8, Intra: 0.5, Inter: 3}
	shardOf, lookahead, err := netmodel.PlanShards(model, n, shards)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewShardedEnv(ShardedEnvConfig{
		N: n, Seed: 1,
		Shards: shards, ShardOf: shardOf, Lookahead: lookahead,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	walkers := make([]gossiplearning.Walker, n)
	strategy := core.Strategy(core.MustRandomized(5, 10))
	host, err := hostrt.NewHost(env, hostrt.Config{
		Graph:    g,
		Strategy: strategy,
		NewApp:   func(i int) protocol.Application { return &walkers[i] },
		Delta:    delta,
		Network:  model,
		// Seed the accounts at the randomized strategy's spending threshold
		// A so cross-shard traffic flows from the first period instead of
		// after ~A banking rounds.
		InitialTokens: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := host.Run(3 * delta); err != nil {
		t.Fatal(err)
	}
	if onlineCount(host) != n {
		t.Errorf("online nodes: %d, want %d", onlineCount(host), n)
	}
	if stats := host.TotalStats(); stats.Rounds == 0 || stats.Received == 0 {
		t.Errorf("run advanced no rounds or delivered nothing: %+v", stats)
	}
	t.Logf("10^7-node sharded run: %d events, live heap after three periods: %.2f GiB",
		env.Processed(), float64(heapAlloc())/(1<<30))
}
