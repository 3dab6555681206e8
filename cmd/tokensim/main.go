// Command tokensim runs a single token account experiment and prints the
// metric time series as tab-separated values.
//
// Example: reproduce one gossip-learning curve of Figure 2 at reduced size:
//
//	tokensim -app gossip-learning -strategy randomized:5:10 -n 1000 -rounds 300
//
// The defaults follow the paper's setup (Δ = 172.8 s, transfer time 1.728 s,
// 1000 rounds ≈ two virtual days).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/internal/profiling"
	"github.com/szte-dcs/tokenaccount/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tokensim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("tokensim", flag.ContinueOnError)
	var (
		appName      = fs.String("app", "gossip-learning", "application: "+strings.Join(experiment.Applications(), ", "))
		strategyName = fs.String("strategy", "randomized:5:10", "strategy kind (with :params, e.g. simple:C, randomized:A:C): "+strings.Join(experiment.StrategyKinds(), ", "))
		scenarioName = fs.String("scenario", "failure-free", "scenario: "+strings.Join(experiment.Scenarios(), ", "))
		runtimeName  = fs.String("runtime", "sim", "execution runtime (sim takes :shards=N for N parallel worker shards, which needs a network model with a positive minimum cross-shard delay, e.g. zones; live takes :timescale, e.g. live:0.001): "+strings.Join(experiment.Runtimes(), ", "))
		networkName  = fs.String("network", "constant", "network latency/loss model (with :params, e.g. exponential:1.728, zones:4:0.5:3, lossy:0.01:uniform:1:2): "+strings.Join(experiment.Networks(), ", "))
		workloadName = fs.String("workload", "interval", "update-injection arrival process (with :params, e.g. poisson:0.5, flashcrowd:3600:20:600:poisson:0.5, replay:arrivals.stream): "+strings.Join(experiment.Workloads(), ", "))
		n            = fs.Int("n", 1000, "number of nodes")
		rounds       = fs.Int("rounds", 200, "number of proactive periods")
		reps         = fs.Int("reps", 1, "independent repetitions to average")
		workers      = fs.Int("workers", 0, "repetitions simulated concurrently (0 = all cores)")
		seed         = fs.Uint64("seed", 1, "random seed")
		audit        = fs.Bool("audit", false, "verify the rate-limit envelope on every node")
		tokens       = fs.Bool("tokens", false, "also print the average token balance series")
		summaryOnly  = fs.Bool("summary", false, "print only the summary line, not the series")
		list         = fs.Bool("list", false, "list the driver names of all six experiment dimensions and exit")
	)
	profiles := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Config.WithDefaults reads a zero as unset, so -rounds 0 would run the
	// paper's 1000 rounds: reject it here, where zero is an explicit value.
	if *rounds < 1 {
		return fmt.Errorf("-rounds = %d, want ≥ 1", *rounds)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps = %d, want ≥ 1", *reps)
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	if *list {
		for _, dim := range []struct {
			name    string
			entries []string
		}{
			{"applications", experiment.Applications()},
			{"scenarios", experiment.Scenarios()},
			{"strategies", experiment.StrategyKinds()},
			{"runtimes", experiment.Runtimes()},
			{"networks", experiment.Networks()},
			{"workloads", experiment.Workloads()},
		} {
			fmt.Fprintf(w, "%s: %s\n", dim.name, strings.Join(dim.entries, ", "))
		}
		return nil
	}
	app, err := experiment.ParseApplication(*appName)
	if err != nil {
		return err
	}
	spec, err := experiment.ParseStrategySpec(*strategyName)
	if err != nil {
		return err
	}
	scenario, err := experiment.ParseScenario(*scenarioName)
	if err != nil {
		return err
	}
	rt, err := experiment.ParseRuntime(*runtimeName)
	if err != nil {
		return err
	}
	network, err := experiment.ParseNetwork(*networkName)
	if err != nil {
		return err
	}
	workload, err := experiment.ParseWorkload(*workloadName)
	if err != nil {
		return err
	}
	cfg := experiment.Config{
		App:            app,
		Strategy:       spec,
		Scenario:       scenario,
		Runtime:        rt,
		Network:        network,
		Workload:       workload,
		N:              *n,
		Rounds:         *rounds,
		Repetitions:    *reps,
		Seed:           *seed,
		AuditRateLimit: *audit,
		TrackTokens:    *tokens,
	}
	res, err := experiment.RunParallel(context.Background(), cfg, *workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s\n", res.Config.Label())
	fmt.Fprintf(w, "# messages sent: %.0f (%.3f per node per round)\n", res.MessagesSent, res.MessagesPerNodePerRound)
	fmt.Fprintf(w, "# final metric: %g, steady-state metric: %g\n", res.FinalMetric, res.SteadyStateMetric)
	// The skipped-injection line is printed only when it carries information
	// (a non-default workload, or injections actually lost to a full-network
	// outage), so historical default output stays byte-identical.
	if !workload.IsDefault() || res.InjectionsSkipped > 0 {
		fmt.Fprintf(w, "# injections skipped (no node online): %g\n", res.InjectionsSkipped)
	}
	// Byte-level load and the application's scalar summary columns appear only
	// for applications that declare them (SummaryReporter), so the output of
	// the paper applications stays byte-identical to earlier releases.
	if sr, ok := app.(experiment.SummaryReporter); ok {
		fmt.Fprintf(w, "# bytes sent: %.0f\n", res.BytesSent)
		for i, col := range sr.SummaryColumns() {
			if i < len(res.Summary) {
				fmt.Fprintf(w, "# %s: %g\n", col, res.Summary[i])
			}
		}
	}
	if *summaryOnly {
		return nil
	}
	table := metrics.NewTable("time_s", "metric")
	table.AddColumn("metric", res.Metric)
	if res.Tokens != nil {
		table.AddColumn("avg_tokens", res.Tokens)
	}
	return table.WriteTSV(w)
}
