package main

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/profiling/proftest"
)

func TestSweepSimpleGrid(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-app", "push-gossip",
		"-kind", "simple",
		"-n", "50",
		"-rounds", "10",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "strategy\tmsgs_per_node_per_round") {
		t.Error("missing header")
	}
	if !strings.Contains(got, "proactive\t") {
		t.Error("missing proactive baseline row")
	}
	if !strings.Contains(got, "simple(C=") {
		t.Error("missing simple strategy rows")
	}
}

// TestSweepBytesPerRoundIsFinite runs a blockcast sweep, the one app whose
// rows carry bytes_per_node_per_round, and requires every row's value to be
// a finite number, positive on the proactive baseline row (strategies with a
// large capacity may not spend a token in 20 rounds): the column is divided
// by the rounds the run actually simulated, which -rounds 0 once left at
// zero (+Inf).
func TestSweepBytesPerRoundIsFinite(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-app", "blockcast", "-kind", "simple", "-n", "40", "-rounds", "20"}, &out); err != nil {
		t.Fatal(err)
	}
	col, rows := -1, 0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if col < 0 {
			col = slices.Index(fields, "bytes_per_node_per_round")
			if col < 0 {
				t.Fatalf("no bytes_per_node_per_round column in header %q", line)
			}
			continue
		}
		rows++
		v, err := strconv.ParseFloat(fields[col], 64)
		if err != nil || !(v >= 0) || math.IsInf(v, 0) {
			t.Errorf("row %q: bytes_per_node_per_round = %q, want a finite number", line, fields[col])
		}
		if fields[0] == "proactive" && !(v > 0) {
			t.Errorf("proactive row %q: bytes_per_node_per_round = %q, want > 0", line, fields[col])
		}
	}
	if rows == 0 {
		t.Fatal("no rows")
	}
}

// TestSweepNetworkAxis sweeps the same strategy grid across two network
// models: the network column must appear exactly when a non-default network
// is in play, every (network, strategy) combination must produce a row, and
// the rows under different networks must actually differ.
func TestSweepNetworkAxis(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-app", "push-gossip",
		"-kind", "simple",
		"-network", "constant,exponential:1.728",
		"-n", "50",
		"-rounds", "10",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "network\tstrategy\tmsgs_per_node_per_round") {
		t.Error("missing network column header")
	}
	rows := map[string]map[string]string{"constant": {}, "exponential:1.728": {}}
	for _, line := range strings.Split(got, "\n") {
		fields := strings.SplitN(line, "\t", 3)
		if len(fields) == 3 {
			if byStrategy, ok := rows[fields[0]]; ok {
				byStrategy[fields[1]] = fields[2]
			}
		}
	}
	constants, exponentials := rows["constant"], rows["exponential:1.728"]
	if len(constants) == 0 || len(constants) != len(exponentials) {
		t.Fatalf("unbalanced network axis: %d constant rows, %d exponential rows", len(constants), len(exponentials))
	}
	// The axis must actually change the simulation: at least one strategy's
	// metrics must differ between the two networks (a no-op axis would print
	// identical values under both labels).
	differs := false
	for strategy, metrics := range constants {
		if exponentials[strategy] != metrics {
			differs = true
			break
		}
	}
	if !differs {
		t.Errorf("every row identical across networks — the axis is a no-op:\n%s", got)
	}
}

func TestSweepErrors(t *testing.T) {
	cases := [][]string{
		{"-app", "bogus"},
		{"-scenario", "bogus"},
		{"-kind", "bogus"},
		{"-runtime", "bogus"},
		{"-network", "bogus"},
		{"-network", "constant,exponential:-1"},
		{"-badflag"},
		{"-kind", "randomized", "-n", "1", "-rounds", "5"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestSweepWorkersProduceIdenticalOutput runs the same small grid with one
// and with four workers and requires byte-identical output: grid settings are
// simulated concurrently but rows are printed in deterministic grid order.
func TestSweepWorkersProduceIdenticalOutput(t *testing.T) {
	sweep := func(workers string) string {
		var out strings.Builder
		err := run([]string{
			"-app", "push-gossip",
			"-kind", "simple",
			"-n", "50",
			"-rounds", "10",
			"-reps", "2",
			"-workers", workers,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	seq, par := sweep("1"), sweep("4")
	if seq != par {
		t.Fatalf("sweep output differs between -workers 1 and -workers 4:\n--- workers=1 ---\n%s--- workers=4 ---\n%s", seq, par)
	}
}

// TestSweepWorkloadAxis sweeps the same strategy grid across two arrival
// workloads: the workload column and the skipped_injections column must
// appear exactly when a non-default workload is in play, every (workload,
// strategy) combination must produce a row, and the rows under different
// workloads must actually differ.
func TestSweepWorkloadAxis(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-app", "push-gossip",
		"-kind", "simple",
		"-workload", "interval,poisson:0.5",
		"-n", "50",
		"-rounds", "10",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "workload\tstrategy\tmsgs_per_node_per_round\tsteady_state_metric\tfinal_metric\tskipped_injections") {
		t.Errorf("missing workload column header:\n%s", got)
	}
	rows := map[string]map[string]string{"interval": {}, "poisson:0.5": {}}
	for _, line := range strings.Split(got, "\n") {
		fields := strings.SplitN(line, "\t", 3)
		if len(fields) == 3 {
			if byStrategy, ok := rows[fields[0]]; ok {
				byStrategy[fields[1]] = fields[2]
			}
		}
	}
	intervals, poissons := rows["interval"], rows["poisson:0.5"]
	if len(intervals) == 0 || len(intervals) != len(poissons) {
		t.Fatalf("unbalanced workload axis: %d interval rows, %d poisson rows", len(intervals), len(poissons))
	}
	differs := false
	for strategy, metrics := range intervals {
		if poissons[strategy] != metrics {
			differs = true
			break
		}
	}
	if !differs {
		t.Errorf("every row identical across workloads — the axis is a no-op:\n%s", got)
	}
}

// TestSweepWorkloadRequiresArrivalConsumer: sweeping a non-default workload
// on an application that ignores arrivals must fail with the validation
// error, naming the offending combination.
func TestSweepWorkloadRequiresArrivalConsumer(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-app", "gossip-learning",
		"-kind", "simple",
		"-workload", "poisson:0.5",
		"-n", "50",
		"-rounds", "10",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "does not consume arrival workloads") {
		t.Errorf("err = %v, want arrival-consumer rejection", err)
	}
}

// TestRoundsAndRepsMustBePositive pins that -rounds and -reps below 1 are
// flag errors: -rounds 0 used to run the paper's 1000 rounds under a header
// that said 0, because the experiment layer reads a zero as unset.
func TestRoundsAndRepsMustBePositive(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-rounds", "0"}, {"-rounds", "-1"}, {"-reps", "0"}, {"-reps", "-2"},
	} {
		var out strings.Builder
		err := run([]string{"-app", "blockcast", "-kind", "simple", "-n", "40", c.flag, c.value}, &out)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s %s: got error %v, want one naming %s", c.flag, c.value, err, c.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%s %s printed %q before failing", c.flag, c.value, out.String())
		}
	}
}

// TestProfileFlags checks that -cpuprofile, -memprofile and -trace leave
// non-empty files behind without touching the sweep output, and that an
// unwritable path is an error rather than a silently missing file.
func TestProfileFlags(t *testing.T) {
	proftest.CheckFlags(t, run, []string{"-app", "push-gossip", "-kind", "simple", "-n", "40", "-rounds", "10", "-workers", "2"})
}
