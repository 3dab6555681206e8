package experiment

import (
	"context"
	"fmt"

	"github.com/szte-dcs/tokenaccount/meanfield"
	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/trace"
)

// Options scales a figure reproduction. The paper's full-size settings
// (N = 5000 or 500,000, 1000 rounds, 10 repetitions) take hours on a laptop,
// so the defaults used by the benchmarks and README's commands are smaller;
// pass FullScale to reproduce the exact published setup.
type Options struct {
	// N overrides the network size (0 = figure default).
	N int
	// Rounds overrides the number of proactive periods (0 = figure default).
	Rounds int
	// Repetitions overrides the number of averaged runs (0 = figure default).
	Repetitions int
	// Seed is the base random seed.
	Seed uint64
	// FullScale requests the paper's exact dimensions, overriding N, Rounds
	// and Repetitions.
	FullScale bool
	// Workers bounds how many strategy configurations are simulated
	// concurrently (0 = all cores, 1 = sequential). Curves and summaries are
	// emitted in deterministic figure order regardless.
	Workers int
}

func (o Options) n(def, full int) int {
	if o.FullScale {
		return full
	}
	if o.N > 0 {
		return o.N
	}
	return def
}

func (o Options) rounds(def int) int {
	if o.FullScale {
		return DefaultRounds
	}
	if o.Rounds > 0 {
		return o.Rounds
	}
	return def
}

func (o Options) reps(def int) int {
	if o.FullScale {
		return 10
	}
	if o.Repetitions > 0 {
		return o.Repetitions
	}
	return def
}

// representativeStrategies returns the strategy selection plotted in Figures
// 2–4: the proactive baseline plus representative simple, generalized and
// randomized parameterizations covering the behaviours discussed in §4.2
// (aggressive A = 1 variants, the robust A = 5, C = 10 and A = 10, C = 20
// settings, and the A = C corner case).
func representativeStrategies() []StrategySpec {
	return []StrategySpec{
		Proactive(),
		Simple(10),
		Simple(20),
		Generalized(1, 10),
		Generalized(5, 10),
		Generalized(10, 10),
		Generalized(10, 20),
		Randomized(1, 10),
		Randomized(5, 10),
		Randomized(10, 20),
	}
}

// FigureResult bundles the table of curves of one figure with the underlying
// per-strategy results.
type FigureResult struct {
	// ID is the paper figure identifier, e.g. "figure2-push-gossip".
	ID string
	// Table holds one column per strategy over virtual time.
	Table *metrics.Table
	// Results holds the full per-strategy results in column order.
	Results []*Result
}

// figureCurves runs one application for every representative strategy under
// the given scenario and collects the metric curves. Strategy configurations
// are simulated concurrently (bounded by workers); columns are assembled in
// the fixed figure order afterwards, so the output never depends on
// scheduling.
func figureCurves(id string, app AppDriver, scenario ScenarioDriver, n, rounds, reps int, seed uint64, workers int) (*FigureResult, error) {
	yLabel := app.MetricLabel()
	specs := representativeStrategies()
	results, err := Collect(context.Background(), workers, len(specs), func(i int) (*Result, error) {
		cfg := Config{
			App:         app,
			Strategy:    specs[i],
			N:           n,
			Rounds:      rounds,
			Scenario:    scenario,
			Seed:        seed,
			Repetitions: reps,
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", id, specs[i].Label(), err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	table := metrics.NewTable("time (s)", yLabel)
	out := &FigureResult{ID: id, Table: table, Results: results}
	for i, spec := range specs {
		table.AddColumn(spec.Label(), results[i].Metric)
	}
	return out, nil
}

// Figure1 reproduces the churn statistics of the smartphone trace: the
// proportion of users online, the proportion that have been online, and the
// per-hour login/logout proportions over the 2-day window.
func Figure1(users int, seed uint64) ([]trace.Bin, error) {
	if users <= 0 {
		users = 1191 // the number of STUNner users in the paper
	}
	tr, err := trace.Smartphone(trace.DefaultSmartphoneConfig(users, seed))
	if err != nil {
		return nil, err
	}
	return tr.Stats(trace.Hour)
}

// Figure2 reproduces one row of Figure 2 (failure-free scenario, N = 5000,
// 1000 rounds): the metric of the given application over time for every
// representative strategy.
func Figure2(app AppDriver, opt Options) (*FigureResult, error) {
	return figureCurves(
		fmt.Sprintf("figure2-%s", app.Name()),
		app, FailureFree,
		opt.n(500, 5000), opt.rounds(200), opt.reps(1), opt.Seed, opt.Workers,
	)
}

// Figure3 reproduces one row of Figure 3 (smartphone trace scenario, N =
// 5000). The chaotic iteration application is excluded, as in the paper.
func Figure3(app AppDriver, opt Options) (*FigureResult, error) {
	if app == ChaoticIteration {
		return nil, fmt.Errorf("experiment: Figure 3 does not include chaotic iteration (§4.2)")
	}
	return figureCurves(
		fmt.Sprintf("figure3-%s", app.Name()),
		app, SmartphoneTrace,
		opt.n(500, 5000), opt.rounds(200), opt.reps(1), opt.Seed, opt.Workers,
	)
}

// Figure4 reproduces one row of Figure 4 (failure-free scenario at scale,
// N = 500,000). The default scaled-down size is 5000; pass FullScale (and a
// lot of patience) for the full half-million-node run.
func Figure4(app AppDriver, opt Options) (*FigureResult, error) {
	if app == ChaoticIteration {
		return nil, fmt.Errorf("experiment: Figure 4 does not include chaotic iteration")
	}
	return figureCurves(
		fmt.Sprintf("figure4-%s", app.Name()),
		app, FailureFree,
		opt.n(5000, 500_000), opt.rounds(200), opt.reps(1), opt.Seed, opt.Workers,
	)
}

// Figure5Setting is one curve of Figure 5: a randomized token account
// parameterization whose measured average balance is compared with the
// mean-field prediction A·C/(C+1).
type Figure5Setting struct {
	Spec      StrategySpec
	Predicted float64
	Measured  *metrics.Series
}

// Figure5 reproduces Figure 5: the average number of tokens over time for
// gossip learning in the failure-free scenario under the randomized token
// account, together with the §4.3 mean-field prediction.
func Figure5(opt Options) ([]Figure5Setting, *metrics.Table, error) {
	settings := []StrategySpec{
		Randomized(1, 10),
		Randomized(5, 10),
		Randomized(10, 20),
		Randomized(20, 40),
	}
	results, err := Collect(context.Background(), opt.Workers, len(settings), func(i int) (*Result, error) {
		cfg := Config{
			App:         GossipLearning,
			Strategy:    settings[i],
			N:           opt.n(500, 5000),
			Rounds:      opt.rounds(200),
			Scenario:    FailureFree,
			Seed:        opt.Seed,
			Repetitions: opt.reps(1),
			TrackTokens: true,
		}
		res, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("figure5: %s: %w", settings[i].Label(), err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	table := metrics.NewTable("time (s)", "average tokens")
	out := make([]Figure5Setting, 0, len(settings))
	for i, spec := range settings {
		table.AddColumn(spec.Label(), results[i].Tokens)
		out = append(out, Figure5Setting{
			Spec:      spec,
			Predicted: meanfield.PredictedRandomizedBalance(spec.A, spec.C),
			Measured:  results[i].Tokens,
		})
	}
	return out, table, nil
}
