package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/szte-dcs/tokenaccount/metrics"
)

// TestRunParallelMatchesSequential is the determinism contract of the
// parallel runner: for every application × scenario combination the worker
// pool must produce a Result that is bit-identical to the sequential path —
// same metric series, same message counts, same token series — because each
// repetition derives its own seed and aggregation folds results in
// repetition order.
func TestRunParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		app      AppDriver
		scenario ScenarioDriver
		tokens   bool
	}{
		{GossipLearning, FailureFree, true},
		{GossipLearning, SmartphoneTrace, false},
		{PushGossip, FailureFree, false},
		{PushGossip, SmartphoneTrace, false},
		{ChaoticIteration, FailureFree, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s-%s", tc.app, tc.scenario), func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				App:         tc.app,
				Strategy:    Randomized(5, 10),
				N:           60,
				Rounds:      20,
				Repetitions: 4,
				Seed:        7,
				TrackTokens: tc.tokens,
			}
			seq, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunParallel(context.Background(), cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.Metric, par.Metric) {
				t.Error("metric series differ between sequential and parallel runs")
			}
			if !reflect.DeepEqual(seq.Tokens, par.Tokens) {
				t.Error("token series differ between sequential and parallel runs")
			}
			if seq.MessagesSent != par.MessagesSent {
				t.Errorf("messages sent differ: sequential %v, parallel %v", seq.MessagesSent, par.MessagesSent)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Error("results differ between sequential and parallel runs")
			}
		})
	}
}

// TestRunParallelMoreRepetitionsThanWorkers hammers the pool with far more
// repetitions than workers so jobs queue and complete out of order before
// Collect puts them back in repetition order; under -race this doubles as the
// data-race test for the whole build → run → average pipeline. The result must still match the
// sequential path exactly.
func TestRunParallelMoreRepetitionsThanWorkers(t *testing.T) {
	cfg := Config{
		App:         GossipLearning,
		Strategy:    Generalized(5, 10),
		N:           40,
		Rounds:      10,
		Repetitions: 16,
		Seed:        3,
	}
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("16 repetitions on 3 workers diverged from the sequential result")
	}
}

// TestRunParallelDefaultWorkers checks that zero workers uses the full
// worker budget and still validates configs up front.
func TestRunParallelDefaultWorkers(t *testing.T) {
	cfg := Config{
		App:         PushGossip,
		Strategy:    Simple(10),
		N:           40,
		Rounds:      10,
		Repetitions: 3,
		Seed:        1,
	}
	if _, err := RunParallel(context.Background(), cfg, 0); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.N = 1
	if _, err := RunParallel(context.Background(), bad, 0); err == nil {
		t.Fatal("invalid config not rejected")
	}
}

// TestRunParallelContextCancellation checks that a done context aborts the run
// with ctx.Err instead of returning a partial aggregate.
func TestRunParallelContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{
		App:         GossipLearning,
		Strategy:    Randomized(5, 10),
		N:           40,
		Rounds:      10,
		Repetitions: 8,
		Seed:        1,
	}
	for _, workers := range []int{1, 4} {
		if _, err := RunParallel(ctx, cfg, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestForEachRunsEveryIndex checks the pool visits each index exactly once
// and that per-slot writes (the idiom all callers use) need no extra locking.
func TestForEachRunsEveryIndex(t *testing.T) {
	const n = 100
	for _, workers := range []int{0, 1, 3, 64} {
		visits := make([]int32, n)
		err := ForEach(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestForEachPropagatesError checks first-error propagation: when exactly one
// index fails, its error must come back verbatim and dispatching must stop
// early (not all of the remaining indices run).
func TestForEachPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	block := make(chan struct{})
	err := ForEach(context.Background(), 4, 1000, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			// Index 0 is dispatched first; releasing the turnstile only now
			// guarantees the failure is recorded while the other workers are
			// still parked on their first job.
			close(block)
			return boom
		}
		<-block
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := atomic.LoadInt32(&ran); got == 1000 {
		t.Fatal("all indices ran despite an early failure")
	}
}

// TestForEachSequentialPreservesOrderAndError checks the workers=1 fast path:
// strict index order and fail-fast on the first error.
func TestForEachSequentialPreservesOrderAndError(t *testing.T) {
	var seen []int
	err := ForEach(context.Background(), 1, 10, func(i int) error {
		seen = append(seen, i)
		if i == 4 {
			return fmt.Errorf("index %d failed", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "index 4") {
		t.Fatalf("err = %v", err)
	}
	if !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("seen = %v", seen)
	}
}

// TestForEachContextCancelStopsDispatch cancels mid-run and requires ctx.Err
// back.
func TestForEachContextCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	err := ForEach(ctx, 2, 1000, func(i int) error {
		once.Do(cancel)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFigureWorkersDeterminism checks that the figure layer, which fans out
// whole strategy configurations rather than repetitions, is likewise
// scheduling-independent.
func TestFigureWorkersDeterminism(t *testing.T) {
	seqFig, err := Figure2(PushGossip, Options{N: 50, Rounds: 10, Repetitions: 1, Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parFig, err := Figure2(PushGossip, Options{N: 50, Rounds: 10, Repetitions: 1, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqFig.Results) != len(parFig.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(seqFig.Results), len(parFig.Results))
	}
	for i := range seqFig.Results {
		if !reflect.DeepEqual(seqFig.Results[i], parFig.Results[i]) {
			t.Fatalf("figure column %d differs between worker counts", i)
		}
	}
}

// TestCollectGathersInIndexOrder checks the shared gather helper: results
// land in their slots regardless of completion order and the first error
// discards the partial slice.
func TestCollectGathersInIndexOrder(t *testing.T) {
	got, err := Collect(context.Background(), 4, 50, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}
	_, err = Collect(context.Background(), 4, 50, func(i int) (int, error) {
		if i == 0 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

// averageRuns builds the repetition outputs the fold tests share: three runs
// on one two-sample grid, the middle one without a token series.
func averageRuns() []*singleRun {
	series := func(a, b float64) *metrics.Series {
		return &metrics.Series{Times: []float64{0, 1}, Values: []float64{a, b}}
	}
	return []*singleRun{
		{metric: series(1, 3), tokens: series(2, 2), sent: 3, bytes: 30, events: 7, skipped: 1, summary: []float64{1, 10}},
		{metric: series(3, 5), sent: 4, bytes: 40, events: 8, skipped: 0, summary: []float64{2, 20}},
		{metric: series(5, 7), tokens: series(4, 6), sent: 5, bytes: 50, events: 9, skipped: 2, summary: []float64{3, 30}},
	}
}

// TestAverageFoldsRepetitions checks the fold behind RunParallel: series are
// averaged pointwise, counts and summary values are per-repetition means, and
// the token series averages only the repetitions that recorded one.
func TestAverageFoldsRepetitions(t *testing.T) {
	cfg := Config{App: GossipLearning, Strategy: Randomized(5, 10), N: 10, Rounds: 4, Repetitions: 3}.WithDefaults()
	res, err := average(cfg, averageRuns())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Metric.Values, []float64{3, 5}) || res.FinalMetric != 5 {
		t.Errorf("metric = %v (final %v), want [3 5] (final 5)", res.Metric.Values, res.FinalMetric)
	}
	if res.Tokens == nil || !reflect.DeepEqual(res.Tokens.Values, []float64{3, 4}) {
		t.Errorf("tokens = %v, want [3 4] over the two runs that tracked them", res.Tokens)
	}
	if res.MessagesSent != 4 || res.BytesSent != 40 || res.EventsProcessed != 8 || res.InjectionsSkipped != 1 {
		t.Errorf("means: sent %v bytes %v events %v skipped %v, want 4 40 8 1",
			res.MessagesSent, res.BytesSent, res.EventsProcessed, res.InjectionsSkipped)
	}
	if want := 4.0 / 10 / 4; res.MessagesPerNodePerRound != want {
		t.Errorf("MessagesPerNodePerRound = %v, want %v", res.MessagesPerNodePerRound, want)
	}
	if !reflect.DeepEqual(res.Summary, []float64{2, 20}) {
		t.Errorf("summary = %v, want [2 20]", res.Summary)
	}
}

// TestAverageRejectsMismatchedSummary requires every repetition's summary to
// have the same number of values; a mismatch is an internal error, never a
// partial average.
func TestAverageRejectsMismatchedSummary(t *testing.T) {
	cfg := Config{App: GossipLearning, Strategy: Randomized(5, 10), N: 10, Rounds: 4, Repetitions: 3}.WithDefaults()
	runs := averageRuns()
	runs[2].summary = []float64{3}
	res, err := average(cfg, runs)
	if err == nil || !strings.Contains(err.Error(), "summary") || res != nil {
		t.Fatalf("average = %v, %v; want a summary error and no result", res, err)
	}
}

// TestAverageRejectsMismatchedMetricGrids passes metrics.Average's grid check
// through: repetitions sampled on different grids are an error, never a
// partial average.
func TestAverageRejectsMismatchedMetricGrids(t *testing.T) {
	cfg := Config{App: GossipLearning, Strategy: Randomized(5, 10), N: 10, Rounds: 4, Repetitions: 3}.WithDefaults()
	runs := averageRuns()
	runs[1].metric = &metrics.Series{Times: []float64{0}, Values: []float64{3}}
	res, err := average(cfg, runs)
	if err == nil || !strings.Contains(err.Error(), "averaging runs") || res != nil {
		t.Fatalf("average = %v, %v; want a grid error and no result", res, err)
	}
}
