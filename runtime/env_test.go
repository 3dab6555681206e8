package runtime_test

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/simnet"
)

// envCase is a constructor of one shipped environment.
type envCase struct {
	name string
	new  func() (runtime.Env, error)
}

// shippedEnvs returns a constructor of every shipped environment with n node
// slots: simnet.Env, ShardedEnv at two shards with the given lookahead, and
// live.Env at the given time scale.
func shippedEnvs(n int, seed uint64, lookahead, scale float64) []envCase {
	halves := func(node int32) int32 { return int32(int(node) * 2 / n) }
	return []envCase{
		{"simnet", func() (runtime.Env, error) {
			return simnet.NewEnv(simnet.EnvConfig{N: n, Seed: seed})
		}},
		{"simnet-sharded", func() (runtime.Env, error) {
			return simnet.NewShardedEnv(simnet.ShardedEnvConfig{
				N: n, Seed: seed, Shards: 2,
				ShardOf: halves, Lookahead: lookahead,
			})
		}},
		{"live", func() (runtime.Env, error) {
			return live.NewEnv(live.EnvConfig{N: n, Seed: seed, TimeScale: scale})
		}},
	}
}

// open builds the environment and closes it when the test ends.
func (c envCase) open(t *testing.T) runtime.Env {
	t.Helper()
	env, err := c.new()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env
}

// TestEnvContract checks, for every shipped environment, the parts of the
// runtime.Env contract the Host relies on without asking: a generator seeded
// with StreamSeed(s) yields exactly the stream rng.Derive(seed, s) seeds, on
// every environment alike (the Host builds its generators from StreamSeed
// and embeds the per-node ones in the slab rows), the online set covers the
// environment's node slots, and
// AtHook behaves as At with the hook call in a closure — a hook scheduled in
// the past runs at the present, and hooks and closures scheduled for the
// same instant run in scheduling order — and SendDelayed, the one way a Host
// sends, delivers no earlier than its delay and keeps equal-delay messages
// in send order — and Run(NaN) is an error, not a run without end.
func TestEnvContract(t *testing.T) {
	const n, seed = 6, 42
	streams := []uint64{0, 1, n - 1, runtime.StreamNet, runtime.StreamPhase, runtime.ShardNetStream(1)}
	// On the live environment a run time unit lasts 20 ms: a callback that
	// runs only after the horizon's wall deadline can schedule nothing
	// within it, so the schedule needs slack against a busy host.
	for _, tc := range shippedEnvs(n, seed, 1, 2e-2) {
		t.Run(tc.name, func(t *testing.T) {
			env := tc.open(t)
			if got := env.Availability().N(); got != n {
				t.Errorf("Availability().N() = %d, want %d", got, n)
			}
			for _, s := range streams {
				want, got := rng.New(rng.Derive(seed, s)), rng.New(env.StreamSeed(s))
				for k := 0; k < 8; k++ {
					if w, g := want.Float64(), got.Float64(); w != g {
						t.Fatalf("stream %#x draw %d: StreamSeed generator gave %v, rng.Derive gave %v", s, k, g, w)
					}
					if w, g := want.Intn(1000), got.Intn(1000); w != g {
						t.Fatalf("stream %#x draw %d: StreamSeed generator gave Intn %d, rng.Derive gave %d", s, k, g, w)
					}
				}
			}
			t.Run("AtHook-in-the-past", func(t *testing.T) { checkAtHookInThePast(t, tc.open(t)) })
			t.Run("AtHook-same-instant", func(t *testing.T) { checkAtHookSameInstant(t, tc.open(t)) })
			t.Run("SendDelayed", func(t *testing.T) { checkSendDelayed(t, tc.open(t)) })
			t.Run("Run-NaN", func(t *testing.T) { checkRunNaN(t, tc.open(t)) })
		})
	}
}

// firing is one callback execution: which one, and the run time it saw.
type firing struct {
	id int
	at float64
}

// logHook records its firings with the node index as the id.
type logHook struct {
	env runtime.Env
	log *[]firing
}

func (h *logHook) RunHook(node int32, _ uint64) {
	*h.log = append(*h.log, firing{int(node), h.env.Now()})
}

// runAtHookSchedule runs env to run time 3 after schedule has been called
// from a callback at run time 1. schedule gets the time that callback ran at
// and a hook and a closure constructor that both log to the returned firings.
func runAtHookSchedule(t *testing.T, env runtime.Env, schedule func(now float64, hook runtime.Hook, closure func(id int) func())) []firing {
	t.Helper()
	var log []firing
	hook := &logHook{env: env, log: &log}
	closure := func(id int) func() {
		return func() { log = append(log, firing{id, env.Now()}) }
	}
	env.At(1, func() { schedule(env.Now(), hook, closure) })
	if err := env.Run(3); err != nil {
		t.Fatal(err)
	}
	return log
}

// checkFirings requires the callbacks with ids 1..len(notBefore) to have run
// in id order, callback k no earlier than notBefore[k-1].
func checkFirings(t *testing.T, log []firing, notBefore []float64) {
	t.Helper()
	if len(log) != len(notBefore) {
		t.Fatalf("%d callbacks ran, want %d: %v", len(log), len(notBefore), log)
	}
	for k, f := range log {
		if f.id != k+1 {
			t.Fatalf("callbacks ran in order %v, want ids 1..%d in scheduling order", log, len(notBefore))
		}
		if f.at < notBefore[k] {
			t.Errorf("callback %d ran at %v, before %v", f.id, f.at, notBefore[k])
		}
	}
}

// checkAtHookInThePast schedules, from a callback at run time 1, a closure
// and then a hook in the past, and then a closure for run time 2. The hook
// runs second only if it was clamped to the present like the closure before
// it.
func checkAtHookInThePast(t *testing.T, env runtime.Env) {
	var scheduledAt float64
	log := runAtHookSchedule(t, env, func(now float64, hook runtime.Hook, closure func(int) func()) {
		scheduledAt = now
		env.At(0.5, closure(1))
		env.AtHook(0.25, hook, 2, 0)
		env.At(2, closure(3))
	})
	checkFirings(t, log, []float64{scheduledAt, scheduledAt, 2})
}

// checkAtHookSameInstant schedules, from a callback at run time 1, closures
// and hooks alternating for run time 2, and requires them to run in
// scheduling order.
func checkAtHookSameInstant(t *testing.T, env runtime.Env) {
	log := runAtHookSchedule(t, env, func(_ float64, hook runtime.Hook, closure func(int) func()) {
		env.At(2, closure(1))
		env.AtHook(2, hook, 2, 0)
		env.At(2, closure(3))
		env.AtHook(2, hook, 4, 0)
		env.At(2, closure(5))
	})
	checkFirings(t, log, []float64{2, 2, 2, 2, 2})
}

// checkSendDelayed sends, from a callback at run time 1, three messages with
// the same delay from node 0 to the last node, and requires them to arrive
// in send order, none before its send time plus the delay. Arrivals are
// timed on the destination's clock: on a sharded environment, its shard's.
// The delay equals the sharded environment's lookahead, so the message may
// cross shards.
func checkSendDelayed(t *testing.T, env runtime.Env) {
	const delay = 1
	to := protocol.NodeID(env.Availability().N() - 1)
	clock := env.Now
	if sh, ok := env.(runtime.Sharded); ok {
		clock = sh.Shard(int(sh.ShardFunc()(int32(to)))).Now
	}
	var log []firing
	env.SetDeliver(func(_, _ protocol.NodeID, p protocol.Payload) {
		log = append(log, firing{int(p.Word), clock()})
	})
	var sentAt float64
	env.At(1, func() {
		sentAt = env.Now()
		for k := 1; k <= 3; k++ {
			env.SendDelayed(0, to, protocol.WordPayload(protocol.KindUpdateSeq, uint64(k)), delay)
		}
	})
	if err := env.Run(3); err != nil {
		t.Fatal(err)
	}
	checkFirings(t, log, []float64{sentAt + delay, sentAt + delay, sentAt + delay})
}

// checkRunNaN schedules one Every chain and requires Run(NaN) to return an
// error. No event time lies past a NaN horizon, so an environment that
// accepts it re-arms the chain forever; the watchdog then ends the chain so
// that Run returns and the failure is reported.
func checkRunNaN(t *testing.T, env runtime.Env) {
	var stop atomic.Bool
	env.Every(0, 1, func() bool { return !stop.Load() })
	done := make(chan error, 1)
	go func() { done <- env.Run(math.NaN()) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run(NaN) returned nil")
		}
	case <-time.After(2 * time.Second):
		stop.Store(true)
		<-done
		t.Fatal("Run(NaN) did not return within 2 s")
	}
}
