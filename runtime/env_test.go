package runtime_test

import (
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/simnet"
)

// TestEnvContract checks, for every shipped environment, the parts of the
// runtime.Env contract the Host relies on without asking: a generator seeded
// with StreamSeed(s) yields exactly the Rand(s) sequence (the Host embeds
// that state in each node's slab row), and the online set covers N() slots.
func TestEnvContract(t *testing.T) {
	const n, seed = 6, 42
	envs := []struct {
		name string
		new  func() (runtime.Env, error)
	}{
		{"simnet", func() (runtime.Env, error) {
			return simnet.NewEnv(simnet.EnvConfig{N: n, Seed: seed, TransferDelay: 1})
		}},
		{"simnet-sharded", func() (runtime.Env, error) {
			return simnet.NewShardedEnv(simnet.ShardedEnvConfig{
				N: n, Seed: seed, TransferDelay: 1, Shards: 2,
				ShardOf: []int32{0, 0, 0, 1, 1, 1}, Lookahead: 1,
			})
		}},
		{"live", func() (runtime.Env, error) {
			return live.NewEnv(live.EnvConfig{N: n, Seed: seed})
		}},
	}
	streams := []uint64{0, 1, n - 1, runtime.StreamNet, runtime.StreamPhase, runtime.ShardNetStream(1)}
	for _, tc := range envs {
		t.Run(tc.name, func(t *testing.T) {
			env, err := tc.new()
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			if got := env.Availability().N(); got != env.N() {
				t.Errorf("Availability().N() = %d, N() = %d", got, env.N())
			}
			for _, s := range streams {
				want, got := env.Rand(s), rng.New(env.StreamSeed(s))
				for k := 0; k < 8; k++ {
					if w, g := want.Float64(), got.Float64(); w != g {
						t.Fatalf("stream %#x draw %d: StreamSeed generator gave %v, Rand gave %v", s, k, g, w)
					}
					if w, g := want.Intn(1000), got.Intn(1000); w != g {
						t.Fatalf("stream %#x draw %d: StreamSeed generator gave Intn %d, Rand gave %d", s, k, g, w)
					}
				}
			}
		})
	}
}
