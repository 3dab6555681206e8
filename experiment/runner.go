package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/szte-dcs/tokenaccount/metrics"
)

// RunParallel executes the repetitions of cfg as an explicit
// build → run → average pipeline on at most workers goroutines (zero means
// runtime.NumCPU(); one runs everything on the calling goroutine with no pool
// at all, the sequential path of Run). Build validates the config and
// applies defaults; run simulates each repetition as an independent job
// (repetition r derives its own seed Seed+r, so jobs share no state) and
// Collect gathers their outputs in repetition order; average then folds them
// once, in that order. Because floating-point addition is performed in
// exactly the sequential order, results are bit-identical for any worker
// count.
//
// The context cancels the run between repetitions: a simulated repetition
// always completes, but no new repetition starts once ctx is done, and
// ctx.Err is returned. If a repetition fails, no further repetition starts
// and the error of the lowest-numbered failed repetition is returned. A
// partial average is never returned.
func RunParallel(ctx context.Context, cfg Config, workers int) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	runs, err := Collect(ctx, workers, cfg.Repetitions, func(rep int) (*singleRun, error) {
		one, err := runOnce(cfg, cfg.Seed+uint64(rep))
		if err != nil {
			return nil, fmt.Errorf("experiment: repetition %d: %w", rep, err)
		}
		return one, nil
	})
	if err != nil {
		return nil, err
	}
	return average(cfg, runs)
}

// average folds the repetitions' outputs, in repetition order, into the
// averaged Result: metrics.Average for the metric and token series, plain
// in-order sums for the counts and the summary.
func average(cfg Config, runs []*singleRun) (*Result, error) {
	metricRuns := make([]*metrics.Series, len(runs))
	var tokenRuns []*metrics.Series
	var sent, bytes, events, skipped float64
	var summary []float64
	for i, run := range runs {
		metricRuns[i] = run.metric
		if run.tokens != nil {
			tokenRuns = append(tokenRuns, run.tokens)
		}
		sent += float64(run.sent)
		bytes += float64(run.bytes)
		events += float64(run.events)
		skipped += float64(run.skipped)
		if run.summary != nil {
			if summary == nil {
				summary = make([]float64, len(run.summary))
			}
			if len(run.summary) != len(summary) {
				return nil, fmt.Errorf("experiment: internal: repetition summary has %d values, want %d",
					len(run.summary), len(summary))
			}
			for j, v := range run.summary {
				summary[j] += v
			}
		}
	}
	avg, err := metrics.Average(metricRuns)
	if err != nil {
		return nil, fmt.Errorf("experiment: averaging runs: %w", err)
	}
	if f, ok := cfg.App.(MetricFinisher); ok {
		avg = f.FinishMetric(cfg, avg)
	}
	reps := float64(len(runs))
	res := &Result{
		Config:            cfg,
		Metric:            avg,
		MessagesSent:      sent / reps,
		BytesSent:         bytes / reps,
		EventsProcessed:   events / reps,
		InjectionsSkipped: skipped / reps,
	}
	for i := range summary {
		summary[i] /= reps
	}
	res.Summary = summary
	res.MessagesPerNodePerRound = res.MessagesSent / float64(cfg.N) / float64(cfg.Rounds)
	_, res.FinalMetric = avg.Last()
	res.SteadyStateMetric = avg.MeanAfter(cfg.Duration() / 2)
	if len(tokenRuns) > 0 {
		if res.Tokens, err = metrics.Average(tokenRuns); err != nil {
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
