package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/simnet"
)

// The execution runtimes, a fixed set resolved by ParseRuntime. They are
// ordinary RuntimeDriver values: comparing against them (cfg.Runtime ==
// experiment.SimRuntime) identifies them.
var (
	// SimRuntime executes repetitions on the discrete-event engine in
	// virtual time — the paper's evaluation setup, deterministic and as fast
	// as the hardware allows. It runs the sequential engine; the
	// "sim:shards=N" spec selects the sharded one.
	SimRuntime RuntimeDriver = simRuntime{}
	// LiveRuntime executes repetitions in real time: wall-clock timers,
	// messages delivered in process on the run loop's scheduler, and the
	// default time compression of DefaultLiveTimeScale. It turns the same
	// experiment spec into a scaled-down deployment rehearsal.
	LiveRuntime RuntimeDriver = liveRuntime{}
)

// IsDefaultRuntime reports whether d is (an instance of) the default
// simulated runtime, whose label the output formats suppress so simulated
// output keeps its historical form. A nil driver counts as default, since
// WithDefaults resolves nil to SimRuntime. A sharded simulated runtime
// (shards > 1) does not count: its event interleaving — while deterministic —
// differs from the sequential engine's, so its label must stay visible.
func IsDefaultRuntime(d RuntimeDriver) bool {
	if d == nil {
		return true
	}
	if s, ok := d.(simRuntime); ok {
		return s.shards <= 1
	}
	return d.Name() == SimRuntime.Name()
}

// DefaultLiveTimeScale is the time compression of the "live" runtime when no
// explicit scale parameter is given: one run-second lasts 0.1 wall-clock
// milliseconds, mapping the paper's Δ = 172.8 s proactive period to ≈ 17 ms,
// so a few hundred rounds complete in seconds of real time.
const DefaultLiveTimeScale = 1e-4

// ParseRuntime resolves a runtime spec string "sim[:shards=N]" or
// "live[:timescale]"; "simnet" and "virtual" name sim, "real" and "wall"
// live.
func ParseRuntime(spec string) (RuntimeDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	switch parts[0] {
	case "sim", "simnet", "virtual":
		return parseSimRuntime(parts[1:])
	case "live", "real", "wall":
		return parseLiveRuntime(parts[1:])
	}
	return nil, fmt.Errorf("experiment: unknown runtime %q (registered: %s)",
		spec, strings.Join(Runtimes(), ", "))
}

// Runtimes returns the names of the two runtimes in sorted order.
func Runtimes() []string { return []string{"live", "sim"} }

// parseSimRuntime parses the parameters of "sim[:shards=N]" specs such as
// "sim:shards=4". The parameter "slab", the name of the engine's one event
// queue, is accepted and changes nothing; any other queue name is an error.
func parseSimRuntime(args []string) (RuntimeDriver, error) {
	var r simRuntime
	sawQueue := false
	for _, arg := range args {
		if n, ok := strings.CutPrefix(arg, "shards="); ok {
			shards, err := strconv.Atoi(n)
			if err != nil || shards < 1 {
				return nil, fmt.Errorf("experiment: bad shard count %q (want a positive integer)", n)
			}
			if r.shards != 0 {
				return nil, fmt.Errorf("experiment: duplicate shards parameter %q", arg)
			}
			r.shards = shards
			continue
		}
		if q := strings.ToLower(strings.TrimSpace(arg)); sawQueue || (q != "" && q != "slab") {
			return nil, fmt.Errorf("experiment: unexpected parameter %q (want sim[:shards=N])", arg)
		}
		sawQueue = true
	}
	return r, nil
}

// simRuntime is the discrete-event RuntimeDriver. shards ≤ 1 (the zero
// value, SimRuntime) runs the sequential engine; shards > 1 ("sim:shards=N")
// partitions every repetition's node space across that many parallel worker
// shards under the conservative time-window protocol (see
// sim.ShardedEngine), which needs a network model with a positive minimum
// cross-shard delay: NewEnv rejects configurations without one (see
// netmodel.PlanShards).
type simRuntime struct {
	shards int
}

func (simRuntime) Name() string { return "sim" }

// String renders sharded instances with their shard count for debugging and
// experiment labels: their event interleaving differs from the sequential
// engine's, so they must stay distinguishable (see IsDefaultRuntime).
func (d simRuntime) String() string {
	if d.shards > 1 {
		return fmt.Sprintf("sim(shards=%d)", d.shards)
	}
	return d.Name()
}

func (d simRuntime) NewEnv(cfg Config, seed uint64) (runtime.Env, error) {
	if d.shards <= 1 {
		return simnet.NewEnv(simnet.EnvConfig{N: cfg.N, Seed: seed})
	}
	model, err := cfg.Network.Model(cfg)
	if err != nil {
		return nil, err
	}
	shardOf, lookahead, err := netmodel.PlanShards(model, cfg.N, d.shards)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return simnet.NewShardedEnv(simnet.ShardedEnvConfig{
		N:         cfg.N,
		Seed:      seed,
		Shards:    d.shards,
		ShardOf:   shardOf,
		Lookahead: lookahead,
	})
}

// liveRuntime is the wall-clock RuntimeDriver: every message is delivered in
// process on the run loop. A zero TimeScale uses the default time
// compression.
type liveRuntime struct {
	// TimeScale is the wall-clock duration of one run-second; 0 selects
	// DefaultLiveTimeScale.
	TimeScale float64
}

// parseLiveRuntime parses the parameters of "live[:timescale]" specs such as
// "live:0.001".
func parseLiveRuntime(args []string) (RuntimeDriver, error) {
	var r liveRuntime
	if len(args) > 1 {
		return nil, fmt.Errorf("experiment: unexpected trailing parameter(s) %v (want live[:timescale])", args[1:])
	}
	if len(args) == 1 {
		scale, err := strconv.ParseFloat(args[0], 64)
		if err != nil || scale <= 0 || math.IsInf(scale, 1) || math.IsNaN(scale) {
			return nil, fmt.Errorf("experiment: bad live timescale %q (want a positive, finite number of wall-seconds per run-second)", args[0])
		}
		r.TimeScale = scale
	}
	return r, nil
}

func (liveRuntime) Name() string { return "live" }

// String renders the runtime with its effective time scale, so differently
// compressed instances stay distinguishable in labels.
func (l liveRuntime) String() string {
	if l.TimeScale == 0 {
		return "live"
	}
	return fmt.Sprintf("live(x%g)", l.TimeScale)
}

func (l liveRuntime) scale() float64 {
	if l.TimeScale == 0 {
		return DefaultLiveTimeScale
	}
	return l.TimeScale
}

func (l liveRuntime) NewEnv(cfg Config, seed uint64) (runtime.Env, error) {
	return live.NewEnv(live.EnvConfig{N: cfg.N, Seed: seed, TimeScale: l.scale()})
}
