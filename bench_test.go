package tokenaccount_test

// This file contains one benchmark per figure of the paper's evaluation
// section, plus ablation benchmarks for the design choices called out in
// DESIGN.md. Each figure benchmark runs a scaled-down version of the
// corresponding experiment (smaller N, fewer rounds, one repetition) and
// reports, in addition to the usual ns/op, the domain metrics of the figure
// via b.ReportMetric — e.g. the speedup of the best token account strategy
// over the proactive baseline. Run the full-scale versions with
// cmd/paperfigs -full.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/meanfield"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	hostrt "github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
	"github.com/szte-dcs/tokenaccount/simnet"
	"github.com/szte-dcs/tokenaccount/trace"

	"github.com/szte-dcs/tokenaccount/apps/gossiplearning"
)

// benchOptions returns the scaled-down figure dimensions used by the
// benchmarks: large enough to show the paper's qualitative behaviour, small
// enough to finish in seconds.
func benchOptions(seed uint64) experiment.Options {
	return experiment.Options{N: 300, Rounds: 100, Repetitions: 1, Seed: seed}
}

// reportSpeedup reports the ratio between the proactive baseline (first
// result) and the best token account strategy for "smaller is better" metrics
// (push gossip lag), or the inverse for "larger is better" metrics (gossip
// learning progress).
func reportSpeedup(b *testing.B, res *experiment.FigureResult, largerIsBetter bool) {
	b.Helper()
	if len(res.Results) < 2 {
		return
	}
	baseline := res.Results[0].SteadyStateMetric
	best := baseline
	for _, r := range res.Results[1:] {
		v := r.SteadyStateMetric
		if largerIsBetter && v > best {
			best = v
		}
		if !largerIsBetter && v < best {
			best = v
		}
	}
	speedup := 0.0
	if largerIsBetter && baseline > 0 {
		speedup = best / baseline
	}
	if !largerIsBetter && best > 0 {
		speedup = baseline / best
	}
	b.ReportMetric(speedup, "speedup_vs_proactive")
	b.ReportMetric(res.Results[0].MessagesPerNodePerRound, "baseline_msgs/node/round")
}

// BenchmarkFig1TraceStats regenerates Figure 1: the churn statistics of the
// (synthetic) smartphone availability trace.
func BenchmarkFig1TraceStats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bins, err := experiment.Figure1(1191, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(bins) != 48 {
			b.Fatalf("got %d bins", len(bins))
		}
	}
}

// BenchmarkFig2GossipLearning regenerates the top row of Figure 2 (gossip
// learning, failure-free) at reduced scale.
func BenchmarkFig2GossipLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure2(experiment.GossipLearning, benchOptions(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, res, true)
	}
}

// BenchmarkFig2PushGossip regenerates the middle row of Figure 2 (push
// gossip, failure-free) at reduced scale.
func BenchmarkFig2PushGossip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure2(experiment.PushGossip, benchOptions(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, res, false)
	}
}

// BenchmarkFig2ChaoticIteration regenerates the bottom row of Figure 2
// (chaotic power iteration, failure-free) at reduced scale.
func BenchmarkFig2ChaoticIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure2(experiment.ChaoticIteration, benchOptions(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, res, false)
	}
}

// BenchmarkFig3GossipLearning regenerates the top row of Figure 3 (gossip
// learning over the smartphone trace) at reduced scale.
func BenchmarkFig3GossipLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure3(experiment.GossipLearning, benchOptions(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, res, true)
	}
}

// BenchmarkFig3PushGossip regenerates the bottom row of Figure 3 (push gossip
// over the smartphone trace) at reduced scale.
func BenchmarkFig3PushGossip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure3(experiment.PushGossip, benchOptions(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, res, false)
	}
}

// BenchmarkFig4GossipLearning regenerates the top row of Figure 4 (gossip
// learning at large scale). The benchmark uses N = 2000 rather than the
// paper's 500,000; cmd/paperfigs -fig 4 -full runs the full size.
func BenchmarkFig4GossipLearning(b *testing.B) {
	opt := experiment.Options{N: 2000, Rounds: 100, Repetitions: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure4(experiment.GossipLearning, opt)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, res, true)
	}
}

// BenchmarkFig4PushGossip regenerates the bottom row of Figure 4 (push gossip
// at large scale, reduced to N = 2000 here).
func BenchmarkFig4PushGossip(b *testing.B) {
	opt := experiment.Options{N: 2000, Rounds: 100, Repetitions: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiment.Figure4(experiment.PushGossip, opt)
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedup(b, res, false)
	}
}

// BenchmarkFig5Tokens regenerates Figure 5: the average token balance of the
// randomized strategy compared with the mean-field prediction A·C/(C+1). The
// reported metric is the worst relative deviation from the prediction.
func BenchmarkFig5Tokens(b *testing.B) {
	opt := experiment.Options{N: 300, Rounds: 150, Repetitions: 1, Seed: 1}
	for i := 0; i < b.N; i++ {
		settings, _, err := experiment.Figure5(opt)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, s := range settings {
			measured := s.Measured.MeanAfter(s.Measured.Times[s.Measured.Len()/2])
			dev := measured/s.Predicted - 1
			if dev < 0 {
				dev = -dev
			}
			if dev > worst {
				worst = dev
			}
		}
		b.ReportMetric(worst, "max_rel_deviation_from_prediction")
	}
}

// BenchmarkAblationUsefulnessSignal quantifies the value of the usefulness
// signal (DESIGN.md design choice): the randomized strategy with the
// usefulness-aware reactive function of eq. (5) against a variant that treats
// every message as useful. The reported metric is the lag ratio (higher means
// the usefulness signal helps more).
func BenchmarkAblationUsefulnessSignal(b *testing.B) {
	run := func(spec experiment.StrategySpec, seed uint64) float64 {
		res, err := experiment.Run(experiment.Config{
			App:         experiment.PushGossip,
			Strategy:    spec,
			N:           300,
			Rounds:      100,
			Seed:        seed,
			Repetitions: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.SteadyStateMetric
	}
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		// Generalized halves the reaction for useless messages; Simple reacts
		// identically to useful and useless messages. Comparing them at the
		// same capacity isolates the usefulness signal.
		withSignal := run(experiment.Generalized(1, 10), seed)
		withoutSignal := run(experiment.Simple(10), seed)
		if withSignal > 0 {
			b.ReportMetric(withoutSignal/withSignal, "lag_ratio_no_signal_vs_signal")
		}
	}
}

// BenchmarkAblationProactiveRamp compares the randomized strategy's linear
// proactive ramp (eq. 4) against the hard threshold of the generalized
// strategy (eq. 1) for gossip learning, reporting the progress ratio.
func BenchmarkAblationProactiveRamp(b *testing.B) {
	run := func(spec experiment.StrategySpec, seed uint64) float64 {
		res, err := experiment.Run(experiment.Config{
			App:         experiment.GossipLearning,
			Strategy:    spec,
			N:           300,
			Rounds:      100,
			Seed:        seed,
			Repetitions: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.SteadyStateMetric
	}
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 1
		ramp := run(experiment.Randomized(5, 10), seed)
		threshold := run(experiment.Generalized(5, 10), seed)
		if threshold > 0 {
			b.ReportMetric(ramp/threshold, "progress_ratio_ramp_vs_threshold")
		}
	}
}

// BenchmarkMeanFieldODE measures the cost of integrating the §4.3 mean-field
// model over the full two-day horizon.
func BenchmarkMeanFieldODE(b *testing.B) {
	b.ReportAllocs()
	m := meanfield.Randomized(5, 10)
	for i := 0; i < b.N; i++ {
		if _, err := meanfield.Simulate(m, 172.8, 0, 1/172.8, 1.0, 1000*172.8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures raw steady-state simulator
// performance: events per second for a mid-sized gossip learning network,
// the number that determines how long the full-scale Figure 4 run takes.
// The network is assembled and warmed up outside the timed region, so the
// loop measures exactly the Send → queue → deliver → Receive → reactive
// Send cycle; one op advances virtual time by one proactive period Δ. In
// steady state this path performs zero heap allocations (pinned by
// simnet's TestSteadyStateMessagePathAllocs).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	benchmarkThroughput(b, 1000, 20)
}

// benchmarkThroughput runs the steady-state throughput loop on n nodes after
// warming up for the given number of rounds. Tracked end-to-end numbers come
// from the repository benchmark (bench/run.sh), not from this loop.
func benchmarkThroughput(b *testing.B, n, warmupRounds int) {
	b.Helper()
	const delta = 172.8
	g, err := overlay.RandomKOut(n, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	env, err := simnet.NewEnv(simnet.EnvConfig{N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := hostrt.NewHost(env, hostrt.Config{
		Graph:    g,
		Strategy: core.MustRandomized(5, 10),
		NewApp:   func(int) protocol.Application { return &gossiplearning.Walker{} },
		Delta:    delta,
		Network:  netmodel.Constant{D: 1.728},
	}); err != nil {
		b.Fatal(err)
	}
	// Warm up: grows the event slab, scratch buffers and token balances to
	// their steady-state high-water marks.
	horizon := float64(warmupRounds) * delta
	if err := env.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := env.Processed()
	for i := 0; i < b.N; i++ {
		horizon += delta
		if err := env.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	events := float64(env.Processed() - start)
	b.ReportMetric(events/float64(b.N), "events/op")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(events/s, "events/sec")
	}
}

// BenchmarkOverlayConstruction measures building the paper's default overlay
// (random 20-out) for a mid-sized network.
func BenchmarkOverlayConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := overlay.RandomKOut(10000, 20, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrategyEvaluation measures the per-decision cost of the strategy
// functions, which sit on the hot path of every simulated event.
func BenchmarkStrategyEvaluation(b *testing.B) {
	strategies := []core.Strategy{
		core.PurelyProactive{},
		core.MustSimple(10),
		core.MustGeneralized(5, 10),
		core.MustRandomized(5, 10),
	}
	src := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		s := strategies[i%len(strategies)]
		a := src.IntN(12)
		sum += s.Proactive(a) + s.Reactive(a, i%2 == 0)
	}
	_ = sum
}

// BenchmarkTraceGeneration measures synthetic smartphone trace generation for
// a full-scale (5000-node) experiment.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Smartphone(trace.DefaultSmartphoneConfig(5000, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSequentialVsParallel measures the repetition-level worker
// pool: the same multi-repetition gossip learning experiment executed
// sequentially and on all cores. The results are bit-identical (see
// TestRunParallelMatchesSequential); only the wall clock should differ.
func BenchmarkRunnerSequentialVsParallel(b *testing.B) {
	cfg := experiment.Config{
		App:         experiment.GossipLearning,
		Strategy:    experiment.Randomized(5, 10),
		N:           300,
		Rounds:      50,
		Repetitions: 8,
		Seed:        1,
	}
	for _, workers := range []int{1, max(2, runtime.NumCPU())} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunParallel(context.Background(), cfg, workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Metric.Len() == 0 {
					b.Fatal("empty metric series")
				}
			}
		})
	}
}

// BenchmarkSweepGridWorkers measures config-level concurrency as cmd/sweep
// uses it: a small strategy grid swept with one worker and with all cores.
func BenchmarkSweepGridWorkers(b *testing.B) {
	specs := []experiment.StrategySpec{
		experiment.Proactive(),
		experiment.Simple(10),
		experiment.Generalized(5, 10),
		experiment.Randomized(5, 10),
		experiment.Randomized(10, 20),
		experiment.Simple(20),
		experiment.Generalized(1, 10),
		experiment.Randomized(1, 10),
	}
	for _, workers := range []int{1, max(2, runtime.NumCPU())} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := experiment.ForEach(context.Background(), workers, len(specs), func(j int) error {
					_, err := experiment.Run(experiment.Config{
						App:         experiment.PushGossip,
						Strategy:    specs[j],
						N:           200,
						Rounds:      50,
						Repetitions: 1,
						Seed:        1,
					})
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedulerQueues is the scheduler micro-benchmark behind the
// DESIGN.md queue numbers: a classic hold-model workload (every executed
// event schedules one successor at a random future offset) over a few
// thousand pending events, all of them in the engine's heap. Its steady state
// allocates nothing.
func BenchmarkSchedulerQueues(b *testing.B) {
	const pending = 4096
	b.ReportAllocs()
	e := sim.NewEngine()
	src := rand.New(rand.NewPCG(1, 1))
	var hold func()
	hold = func() { e.Schedule(src.Float64()*100, hold) }
	for i := 0; i < pending; i++ {
		e.Schedule(src.Float64()*100, hold)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
