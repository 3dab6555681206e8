// Command paperfigs regenerates the figures of the paper's evaluation
// section. Each figure is printed as a tab-separated table (one column per
// strategy) that can be plotted directly with gnuplot or a spreadsheet.
//
//	paperfigs -fig 1              # smartphone trace churn statistics
//	paperfigs -fig 2              # failure-free convergence, all three apps
//	paperfigs -fig 3              # smartphone trace scenario
//	paperfigs -fig 4              # scalability run
//	paperfigs -fig 5              # average token balance vs. prediction
//	paperfigs -fig 6              # blockcast commit latency and burst bytes
//	paperfigs -fig all -full      # everything at the paper's full scale
//
// Without -full the figures are reproduced at a reduced scale (smaller N,
// fewer rounds, one repetition) so that the whole set completes in minutes on
// a laptop; the qualitative shape — which strategy wins and by roughly what
// factor — is preserved. README.md lists the commands per figure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/internal/profiling"
	"github.com/szte-dcs/tokenaccount/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	var (
		fig     = fs.String("fig", "all", "figure to regenerate: 1, 2, 3, 4, 5, 6 or all")
		n       = fs.Int("n", 0, "override network size (0 = scaled default)")
		seed    = fs.Uint64("seed", 1, "random seed")
		reps    = fs.Int("reps", 0, "override repetitions (0 = scaled default)")
		round   = fs.Int("rounds", 0, "override number of rounds (0 = scaled default)")
		full    = fs.Bool("full", false, "use the paper's full-scale dimensions (slow)")
		users   = fs.Int("users", 1191, "number of trace users for Figure 1")
		workers = fs.Int("workers", 0, "figure configurations simulated concurrently (0 = all cores)")
	)
	profiles := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
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
	opt := experiment.Options{N: *n, Rounds: *round, Repetitions: *reps, Seed: *seed, FullScale: *full, Workers: *workers}
	runners := map[string]func() error{
		"1": func() error { return figure1(w, *users, *seed) },
		"2": func() error { return figure2(w, opt) },
		"3": func() error { return figure3(w, opt) },
		"4": func() error { return figure4(w, opt) },
		"5": func() error { return figure5(w, opt) },
		"6": func() error { return figure6(w, opt) },
	}
	if *fig == "all" {
		for _, id := range []string{"1", "2", "3", "4", "5", "6"} {
			if err := runners[id](); err != nil {
				return err
			}
		}
		return nil
	}
	runner, ok := runners[*fig]
	if !ok {
		return fmt.Errorf("unknown figure %q (want 1-6 or all)", *fig)
	}
	return runner()
}

func figure1(w io.Writer, users int, seed uint64) error {
	fmt.Fprintln(w, "### Figure 1: smartphone trace churn statistics")
	bins, err := experiment.Figure1(users, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "hour\tonline\thas_been_online\tlogins\tlogouts")
	for _, b := range bins {
		fmt.Fprintf(w, "%.0f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			b.Time/trace.Hour, b.OnlineFrac, b.EverOnlineFrac, b.LoginFrac, b.LogoutFrac)
	}
	fmt.Fprintln(w)
	return nil
}

func writeFigure(w io.Writer, title string, res *experiment.FigureResult) error {
	fmt.Fprintf(w, "### %s\n", title)
	if err := res.Table.WriteTSV(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# summary: strategy, msgs/node/round, steady-state metric")
	for _, r := range res.Results {
		fmt.Fprintf(w, "# %-28s %8.3f %12.5g\n",
			r.Config.Strategy.Label(), r.MessagesPerNodePerRound, r.SteadyStateMetric)
	}
	fmt.Fprintln(w)
	return nil
}

func figure2(w io.Writer, opt experiment.Options) error {
	for _, app := range []experiment.AppDriver{
		experiment.GossipLearning, experiment.PushGossip, experiment.ChaoticIteration,
	} {
		res, err := experiment.Figure2(app, opt)
		if err != nil {
			return err
		}
		if err := writeFigure(w, fmt.Sprintf("Figure 2 (%s, failure-free)", app), res); err != nil {
			return err
		}
	}
	return nil
}

func figure3(w io.Writer, opt experiment.Options) error {
	for _, app := range []experiment.AppDriver{experiment.GossipLearning, experiment.PushGossip} {
		res, err := experiment.Figure3(app, opt)
		if err != nil {
			return err
		}
		if err := writeFigure(w, fmt.Sprintf("Figure 3 (%s, smartphone trace)", app), res); err != nil {
			return err
		}
	}
	return nil
}

func figure4(w io.Writer, opt experiment.Options) error {
	for _, app := range []experiment.AppDriver{experiment.GossipLearning, experiment.PushGossip} {
		res, err := experiment.Figure4(app, opt)
		if err != nil {
			return err
		}
		if err := writeFigure(w, fmt.Sprintf("Figure 4 (%s, failure-free, large N)", app), res); err != nil {
			return err
		}
	}
	return nil
}

func figure6(w io.Writer, opt experiment.Options) error {
	fmt.Fprintln(w, "### Figure 6: blockcast block dissemination — commit latency and burst bytes")
	rows, err := experiment.BlockcastFigure(opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "scenario\tnetwork\tworkload\tstrategy\tmsgs_per_node_per_round\tbytes_per_node_per_round\tcommit_latency_p50_s\tcommit_latency_p99_s\tpeak_node_burst_bytes\tsteady_state_backlog")
	for _, row := range rows {
		res := row.Result
		cfg := res.Config
		bytesPerNodeRound := res.BytesSent / float64(cfg.N) / float64(cfg.Rounds)
		p50, p99, burst := res.Summary[0], res.Summary[1], res.Summary[2]
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.3f\t%.1f\t%g\t%g\t%g\t%g\n",
			experiment.DriverLabel(row.Scenario), experiment.DriverLabel(row.Network),
			experiment.DriverLabel(row.Workload), row.Strategy.Label(),
			res.MessagesPerNodePerRound, bytesPerNodeRound, p50, p99, burst, res.SteadyStateMetric)
	}
	fmt.Fprintln(w)
	return nil
}

func figure5(w io.Writer, opt experiment.Options) error {
	fmt.Fprintln(w, "### Figure 5: average number of tokens (gossip learning, failure-free)")
	settings, table, err := experiment.Figure5(opt)
	if err != nil {
		return err
	}
	if err := table.WriteTSV(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "# mean-field prediction A·C/(C+1) vs. measured steady state:")
	for _, s := range settings {
		measured := s.Measured.MeanAfter(s.Measured.Times[s.Measured.Len()/2])
		fmt.Fprintf(w, "# %-24s predicted %6.3f measured %6.3f\n", s.Spec.Label(), s.Predicted, measured)
	}
	fmt.Fprintln(w)
	return nil
}
