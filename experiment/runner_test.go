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
	"time"

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
// repetitions than workers so jobs queue, complete out of order and exercise
// the reorder buffer; under -race this doubles as the data-race test for the
// whole build → run → aggregate pipeline. The result must still match the
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

// TestAggregatorAdmissionWindow pins the memory bound of the reorder buffer:
// a repetition beyond the admission window must wait until the aggregation
// frontier advances, while the frontier repetition itself is always admitted.
func TestAggregatorAdmissionWindow(t *testing.T) {
	cfg := Config{App: GossipLearning, Strategy: Randomized(5, 10), N: 10, Repetitions: 4}.WithDefaults()
	agg := newAggregator(cfg, 2)
	ctx := context.Background()

	if err := agg.admit(ctx, 0); err != nil { // frontier: immediate
		t.Fatal(err)
	}
	if err := agg.admit(ctx, 1); err != nil { // within window
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() { admitted <- agg.admit(ctx, 2) }() // beyond window: must park
	select {
	case err := <-admitted:
		t.Fatalf("repetition 2 admitted before the frontier advanced (err = %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := agg.add(0, &singleRun{metric: &metrics.Series{Times: []float64{0}, Values: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("repetition 2 still blocked after the frontier advanced")
	}

	// An abort must release waiters with an error rather than stranding them.
	blocked := make(chan error, 1)
	go func() { blocked <- agg.admit(ctx, 5) }()
	agg.abort()
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("aborted admit returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not wake the admission waiter")
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
