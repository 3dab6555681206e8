// Command sweep explores the (A, C) parameter space of a token account
// strategy family for one application, as in §4.2 of the paper (A ∈
// {1,2,5,10,15,20,40}, C−A ∈ {0,1,2,5,10,15,20,40,80}), and prints one
// summary line per parameter combination.
//
//	sweep -app gossip-learning -kind randomized -n 1000 -rounds 200
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
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// sweepableKinds lists the strategy families with a parameter grid worth
// exploring: the pure reactive reference has none, and the proactive
// baseline's one-point grid is already printed as the anchor row of every
// sweep.
func sweepableKinds() []string {
	var kinds []string
	for _, kind := range experiment.StrategyKinds() {
		if kind == string(experiment.KindProactive) {
			continue
		}
		if len(experiment.ParameterGrid(experiment.StrategyKind(kind))) > 0 {
			kinds = append(kinds, kind)
		}
	}
	return kinds
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		appName      = fs.String("app", "gossip-learning", "application to sweep: "+strings.Join(experiment.Applications(), ", "))
		kindName     = fs.String("kind", "randomized", "strategy family: "+strings.Join(sweepableKinds(), ", "))
		scenarioName = fs.String("scenario", "failure-free", "failure scenario: "+strings.Join(experiment.Scenarios(), ", "))
		runtimeName  = fs.String("runtime", "sim", "execution runtime (sim takes :shards=N for N parallel worker shards, which needs a network model with a positive minimum cross-shard delay, e.g. zones; live takes :timescale, e.g. live:0.001): "+strings.Join(experiment.Runtimes(), ", "))
		networkList  = fs.String("network", "constant", "comma-separated network model specs swept as an extra axis (e.g. constant,exponential:1.728,zones:4:0.5:3): "+strings.Join(experiment.Networks(), ", "))
		workloadList = fs.String("workload", "interval", "comma-separated update-injection arrival process specs swept as an extra axis (e.g. interval,poisson:0.5,pareto-onoff:2:30:90:1.5): "+strings.Join(experiment.Workloads(), ", "))
		n            = fs.Int("n", 500, "number of nodes")
		rounds       = fs.Int("rounds", 200, "number of proactive periods")
		reps         = fs.Int("reps", 1, "repetitions per setting")
		workers      = fs.Int("workers", 0, "grid settings simulated concurrently (0 = all cores)")
		seed         = fs.Uint64("seed", 1, "random seed")
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
	app, err := experiment.ParseApplication(*appName)
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
	var nets []experiment.Network
	for _, spec := range strings.Split(*networkList, ",") {
		net, err := experiment.ParseNetwork(spec)
		if err != nil {
			return err
		}
		nets = append(nets, net)
	}
	var wls []experiment.Workload
	for _, spec := range strings.Split(*workloadList, ",") {
		wl, err := experiment.ParseWorkload(spec)
		if err != nil {
			return err
		}
		wls = append(wls, wl)
	}
	kind := experiment.StrategyKind(*kindName)
	grid := experiment.ParameterGrid(kind)
	if len(grid) == 0 {
		return fmt.Errorf("no parameter grid for strategy kind %q", *kindName)
	}
	// The proactive baseline anchors the comparison. The header only names
	// the runtime when it is not the default simulator, keeping simulated
	// sweep output in its historical form; likewise the network column only
	// appears when the sweep leaves the default constant network.
	specs := append([]experiment.StrategySpec{experiment.Proactive()}, grid...)
	runtimeNote := ""
	if !experiment.IsDefaultRuntime(rt) {
		runtimeNote = ", runtime=" + experiment.DriverLabel(rt)
	}
	showNet := len(nets) > 1 || !nets[0].IsDefault()
	// Like the network column, the workload column (and its companion
	// skipped-injection count) appears exactly when a non-default workload is
	// in play, keeping default sweep output in its historical form.
	showWl := len(wls) > 1 || !wls[0].IsDefault()
	fmt.Fprintf(w, "# %s on %s, %s, N=%d, %d rounds, %d repetition(s)%s\n",
		kind, experiment.DriverLabel(app), experiment.DriverLabel(scenario), *n, *rounds, *reps, runtimeNote)
	header := "strategy\tmsgs_per_node_per_round\tsteady_state_metric\tfinal_metric"
	if showWl {
		header = "workload\t" + header + "\tskipped_injections"
	}
	if showNet {
		header = "network\t" + header
	}
	// Applications with scalar summary columns (SummaryReporter) append them
	// plus the byte total; the paper applications keep their historical
	// columns.
	var summaryCols []string
	if sr, ok := app.(experiment.SummaryReporter); ok {
		summaryCols = sr.SummaryColumns()
		header += "\tbytes_per_node_per_round"
		for _, col := range summaryCols {
			header += "\t" + col
		}
	}
	fmt.Fprintln(w, header)
	// Grid settings (network × workload × strategy) are embarrassingly
	// parallel: simulate them on a bounded worker pool and print the rows in
	// grid order so the output is identical for any worker count.
	type job struct {
		net  experiment.Network
		wl   experiment.Workload
		spec experiment.StrategySpec
	}
	var jobs []job
	for _, net := range nets {
		for _, wl := range wls {
			for _, spec := range specs {
				jobs = append(jobs, job{net: net, wl: wl, spec: spec})
			}
		}
	}
	results, err := experiment.Collect(context.Background(), *workers, len(jobs), func(i int) (*experiment.Result, error) {
		res, err := experiment.Run(experiment.Config{
			App:         app,
			Strategy:    jobs[i].spec,
			Scenario:    scenario,
			Runtime:     rt,
			Network:     jobs[i].net,
			Workload:    jobs[i].wl,
			N:           *n,
			Rounds:      *rounds,
			Repetitions: *reps,
			Seed:        *seed,
		})
		if err != nil {
			prefix := jobs[i].spec.Label()
			if showWl {
				prefix = experiment.DriverLabel(jobs[i].wl) + "/" + prefix
			}
			if showNet {
				prefix = experiment.DriverLabel(jobs[i].net) + "/" + prefix
			}
			return nil, fmt.Errorf("%s: %w", prefix, err)
		}
		return res, nil
	})
	if err != nil {
		return err
	}
	for i, j := range jobs {
		res := results[i]
		if showNet {
			fmt.Fprintf(w, "%s\t", experiment.DriverLabel(j.net))
		}
		if showWl {
			fmt.Fprintf(w, "%s\t", experiment.DriverLabel(j.wl))
		}
		fmt.Fprintf(w, "%s\t%.3f\t%g\t%g",
			j.spec.Label(), res.MessagesPerNodePerRound, res.SteadyStateMetric, res.FinalMetric)
		if showWl {
			fmt.Fprintf(w, "\t%g", res.InjectionsSkipped)
		}
		if summaryCols != nil {
			fmt.Fprintf(w, "\t%.3f", res.BytesSent/float64(*n)/float64(res.Config.Rounds))
			for k := range summaryCols {
				v := 0.0
				if k < len(res.Summary) {
					v = res.Summary[k]
				}
				fmt.Fprintf(w, "\t%g", v)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
