package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"github.com/szte-dcs/tokenaccount/metrics"
)

// RunParallel executes the repetitions of cfg as an explicit
// build → run → aggregate pipeline on at most workers goroutines (zero means
// runtime.NumCPU(); one runs everything on the calling goroutine with no pool
// at all, the sequential path of Run). Build validates the config and
// applies defaults; run simulates each repetition as an independent job
// (repetition r derives its own seed Seed+r, so jobs share no state);
// aggregate folds the per-repetition results into the running averages in
// repetition order. Because aggregation order is fixed and floating-point
// addition is performed in exactly the sequential order, results are
// bit-identical for any worker count.
//
// The context cancels the run between repetitions: a simulated repetition
// always completes, but no new repetition starts once ctx is done, and
// ctx.Err is returned. If a repetition fails, the remaining jobs are
// abandoned and the error of the lowest-numbered failed repetition is
// returned.
func RunParallel(ctx context.Context, cfg Config, workers int) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// The admission window is twice the worker count: wide enough that no
	// worker ever idles waiting for the frontier while slots remain, tight
	// enough that at most 2·workers−1 out-of-order results are ever buffered.
	agg := newAggregator(cfg, 2*min(workers, cfg.Repetitions))
	// A cancelled context must also wake admission waiters, or a stalled
	// frontier repetition whose dispatch was cancelled would strand them.
	stopWatch := context.AfterFunc(ctx, agg.abort)
	defer stopWatch()
	err := ForEach(ctx, workers, cfg.Repetitions, func(rep int) error {
		if err := agg.admit(ctx, rep); err != nil {
			return err
		}
		one, err := runOnce(cfg, cfg.Seed+uint64(rep))
		if err != nil {
			agg.abort()
			return fmt.Errorf("experiment: repetition %d: %w", rep, err)
		}
		if err := agg.add(rep, one); err != nil {
			agg.abort()
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return agg.finish()
}

// errAborted is returned to workers woken after another repetition failed;
// the pool always prefers the lower-indexed original failure, so this
// sentinel never surfaces to callers.
var errAborted = errors.New("experiment: run aborted")

// aggregator folds per-repetition results into running averages in strict
// repetition order. Workers complete out of order, so results that arrive
// early wait in a small reorder buffer; admission gating bounds that buffer
// to window−1 entries (no repetition may start until it is within window of
// the aggregation frontier), so memory stays O(workers) series rather than
// O(repetitions) even when one repetition stalls. All methods are safe for
// concurrent use.
type aggregator struct {
	cfg    Config
	window int

	mu      sync.Mutex
	cond    *sync.Cond
	aborted bool
	metric  metrics.Accumulator
	tokens  metrics.Accumulator
	sent    float64
	bytes   float64
	events  float64
	skipped float64
	summary []float64
	next    int
	pending map[int]*singleRun
}

func newAggregator(cfg Config, window int) *aggregator {
	a := &aggregator{cfg: cfg, window: window, pending: make(map[int]*singleRun)}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// admit blocks until repetition rep lies within the admission window of the
// aggregation frontier, the run is aborted, or ctx is done. The repetition at
// the frontier itself is always admitted immediately, so the frontier (and
// with it every waiter) is guaranteed to make progress.
func (a *aggregator) admit(ctx context.Context, rep int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for !a.aborted && rep >= a.next+a.window {
		a.cond.Wait()
	}
	if a.aborted {
		if err := ctx.Err(); err != nil {
			return err
		}
		return errAborted
	}
	return nil
}

// abort wakes every admission waiter and makes further admissions fail.
func (a *aggregator) abort() {
	a.mu.Lock()
	a.aborted = true
	a.mu.Unlock()
	a.cond.Broadcast()
}

// add registers the result of repetition rep and folds in every repetition
// that is now contiguous with the already-aggregated prefix, waking admission
// waiters whenever the frontier advances.
func (a *aggregator) add(rep int, run *singleRun) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pending[rep] = run
	advanced := false
	defer func() {
		if advanced {
			a.cond.Broadcast()
		}
	}()
	for {
		run, ok := a.pending[a.next]
		if !ok {
			return nil
		}
		delete(a.pending, a.next)
		if err := a.metric.Add(run.metric); err != nil {
			return fmt.Errorf("experiment: averaging runs: %w", err)
		}
		if run.tokens != nil {
			if err := a.tokens.Add(run.tokens); err != nil {
				return fmt.Errorf("experiment: averaging token series: %w", err)
			}
		}
		a.sent += float64(run.sent)
		a.bytes += float64(run.bytes)
		a.events += float64(run.events)
		a.skipped += float64(run.skipped)
		if run.summary != nil {
			if a.summary == nil {
				a.summary = make([]float64, len(run.summary))
			}
			if len(run.summary) != len(a.summary) {
				return fmt.Errorf("experiment: internal: repetition summary has %d values, want %d",
					len(run.summary), len(a.summary))
			}
			for i, v := range run.summary {
				a.summary[i] += v
			}
		}
		a.next++
		advanced = true
	}
}

// finish assembles the averaged Result.
func (a *aggregator) finish() (*Result, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next != a.cfg.Repetitions {
		return nil, fmt.Errorf("experiment: internal: aggregated %d of %d repetitions", a.next, a.cfg.Repetitions)
	}
	avg, err := a.metric.Mean()
	if err != nil {
		return nil, fmt.Errorf("experiment: averaging runs: %w", err)
	}
	if f, ok := a.cfg.App.(MetricFinisher); ok {
		avg = f.FinishMetric(a.cfg, avg)
	}
	res := &Result{
		Config:            a.cfg,
		Metric:            avg,
		MessagesSent:      a.sent / float64(a.cfg.Repetitions),
		BytesSent:         a.bytes / float64(a.cfg.Repetitions),
		EventsProcessed:   a.events / float64(a.cfg.Repetitions),
		InjectionsSkipped: a.skipped / float64(a.cfg.Repetitions),
	}
	if a.summary != nil {
		res.Summary = make([]float64, len(a.summary))
		for i, v := range a.summary {
			res.Summary[i] = v / float64(a.cfg.Repetitions)
		}
	}
	res.MessagesPerNodePerRound = res.MessagesSent / float64(a.cfg.N) / float64(a.cfg.Rounds)
	_, res.FinalMetric = avg.Last()
	res.SteadyStateMetric = avg.MeanAfter(a.cfg.Duration() / 2)
	if a.tokens.Runs() > 0 {
		res.Tokens, err = a.tokens.Mean()
		if err != nil {
			return nil, fmt.Errorf("experiment: averaging token series: %w", err)
		}
	}
	return res, nil
}

// Collect runs fn(i) for every i in [0, n) on at most workers concurrent
// goroutines (see ForEach) and returns the results in index order. It is the
// gather pattern shared by the figure reproductions and cmd/sweep: completion
// order never shows, so output is deterministic for any worker count.
func Collect[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) on at most workers concurrent
// goroutines (zero workers means runtime.NumCPU()). It is the shared pool
// behind RunParallel, the figure reproductions and cmd/sweep: callers write
// results into slot i of a pre-sized slice, which keeps output order
// deterministic regardless of completion order. Once any fn returns an error
// no further indices are dispatched, in-flight calls finish, and the error of
// the lowest index that failed is returned. A done context likewise stops
// dispatch and surfaces ctx.Err.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstIdx int
		firstErr error
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}

	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}
