package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/profiling/proftest"
)

var update = flag.Bool("update", false, "rewrite testdata/list.txt from the current -list output")

// goldenWorkers are the -workers values every golden case runs with: its two
// repetitions one after the other, and both at once. The output must not
// depend on how the repetitions are scheduled, whatever the machine's core
// count.
var goldenWorkers = []string{"1", "2"}

// TestGoldenMatrixByteIdentity pins the simulator's output bit-for-bit: each
// golden file under testdata/golden was produced by the pre-typed-event
// implementation (closure deliveries, boxed `any` payloads, slab queue
// only), and every app × strategy × scenario cell must reproduce it exactly,
// under each of goldenWorkers. This is the end-to-end guarantee that the
// zero-allocation message path, the lanes and the inline-key heap are pure
// optimizations.
func TestGoldenMatrixByteIdentity(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.tsv"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden files found: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".tsv")
		parts := strings.SplitN(name, "_", 3)
		if len(parts) != 3 {
			t.Fatalf("golden file %q does not parse as app_strategy_scenario", name)
		}
		// File names flatten ':' to '-'; restore the parameter separators.
		app := parts[0]
		strategy := strings.NewReplacer("randomized-5-10", "randomized:5:10").Replace(parts[1])
		scenario := strings.NewReplacer("crash-burst-0.4", "crash-burst:0.4").Replace(parts[2])
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for _, workers := range goldenWorkers {
				t.Run("workers="+workers, func(t *testing.T) {
					var out strings.Builder
					err := run([]string{
						"-app", app,
						"-strategy", strategy,
						"-scenario", scenario,
						"-n", "60",
						"-rounds", "20",
						"-reps", "2",
						"-seed", "7",
						"-tokens",
						"-workers", workers,
					}, &out)
					if err != nil {
						t.Fatal(err)
					}
					if out.String() != string(want) {
						t.Errorf("output diverged from golden file %s (workers=%s)", file, workers)
					}
				})
			}
		})
	}
}

// goldenNetworkCases maps each golden file under testdata/golden-network to
// the tokensim arguments that produce it; they follow the shared size, seed
// and -tokens arguments, so a case may override those. The configs cover the
// non-constant latency families (variable gaps, zoned WAN delays, composed
// loss), so the event queue's behaviour under non-constant inter-event gaps
// is pinned end to end. push_simple-10_smartphone-trace runs long enough
// (150 rounds: into the trace's night) for full-balance nodes to find no
// online neighbour, the branch of the §3.4 deposit cap; without the cap its
// last 30 rows change.
var goldenNetworkCases = map[string][]string{
	"gossip_exponential":              {"-app", "gossip-learning", "-strategy", "randomized:5:10", "-network", "exponential:1.728"},
	"push_zones":                      {"-app", "push-gossip", "-strategy", "generalized:1:10", "-network", "zones:4:0.5:3"},
	"gossip_lossy":                    {"-app", "gossip-learning", "-strategy", "randomized:5:10", "-network", "lossy:0.1:uniform:0.5:3"},
	"push_simple-10_smartphone-trace": {"-app", "push-gossip", "-strategy", "simple:10", "-scenario", "smartphone-trace", "-rounds", "150"},
}

// TestGoldenNetworkModelsByteIdentity extends the golden matrix to
// heterogeneous network models and churn: each case must reproduce its
// golden file byte-for-byte under each of goldenWorkers.
func TestGoldenNetworkModelsByteIdentity(t *testing.T) {
	for name, args := range goldenNetworkCases {
		want, err := os.ReadFile(filepath.Join("testdata", "golden-network", name+".tsv"))
		if err != nil {
			t.Fatalf("missing golden file for %s: %v (regenerate with the args in goldenNetworkCases)", name, err)
		}
		t.Run(name, func(t *testing.T) {
			for _, workers := range goldenWorkers {
				t.Run("workers="+workers, func(t *testing.T) {
					var out strings.Builder
					full := append([]string{"-n", "60", "-rounds", "20", "-reps", "2", "-seed", "7", "-tokens", "-workers", workers}, args...)
					if err := run(full, &out); err != nil {
						t.Fatal(err)
					}
					if out.String() != string(want) {
						t.Errorf("output diverged from golden-network file %s (workers=%s)", name, workers)
					}
				})
			}
		})
	}
}

func TestRunSummaryOnly(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-app", "gossip-learning",
		"-strategy", "randomized:5:10",
		"-n", "60",
		"-rounds", "20",
		"-summary",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "messages sent") || !strings.Contains(got, "steady-state metric") {
		t.Errorf("summary output missing fields:\n%s", got)
	}
	if strings.Count(got, "\n") > 5 {
		t.Errorf("summary-only output has too many lines:\n%s", got)
	}
}

func TestRunSeriesOutput(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-app", "push-gossip",
		"-strategy", "generalized:1:10",
		"-n", "60",
		"-rounds", "20",
		"-tokens",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "time_s\tmetric\tavg_tokens") {
		t.Errorf("series header missing:\n%s", got[:min(len(got), 400)])
	}
	if strings.Count(got, "\n") < 20 {
		t.Errorf("expected ≈ 20 sample rows, got:\n%s", got)
	}
}

func TestRunAuditedChaoticIteration(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-app", "chaotic-iteration",
		"-strategy", "simple:10",
		"-n", "50",
		"-rounds", "20",
		"-audit",
		"-summary",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunLiveRuntime exercises the -runtime flag end to end: the same spec
// that simulates in virtual time completes a compressed real-time run with a
// sampled metric series.
func TestRunLiveRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run")
	}
	var out strings.Builder
	err := run([]string{
		"-app", "push-gossip",
		"-strategy", "randomized:5:10",
		"-scenario", "crash-burst:0.4",
		"-runtime", "live:0.0002",
		"-n", "24",
		"-rounds", "10",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "/live(x0.0002)") {
		t.Errorf("label does not mention the live runtime:\n%s", got)
	}
	if strings.Count(got, "\n") < 10 {
		t.Errorf("expected ≈ 10 sample rows, got:\n%s", got)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-app", "bogus"},
		{"-strategy", "bogus"},
		{"-scenario", "bogus"},
		{"-runtime", "bogus"},
		{"-runtime", "live:0"},
		{"-network", "bogus"},
		{"-network", "exponential:0"},
		{"-network", "zones:4:1"},
		{"-network", "lossy:1.5:constant"},
		{"-queue", "slab"}, // the one queue has no flag
		{"-queue", "calendar"},
		{"-runtime", "sim:calendar"},
		{"-runtime", "sim:heap"},
		{"-runtime", "sim:bogus"},
		{"-app", "chaotic-iteration", "-scenario", "smartphone-trace", "-n", "50", "-rounds", "5"},
		{"-n", "1"},
		{"-badflag"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
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
		err := run([]string{"-app", "push-gossip", "-n", "40", c.flag, c.value}, &out)
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s %s: got error %v, want one naming %s", c.flag, c.value, err, c.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%s %s printed %q before failing", c.flag, c.value, out.String())
		}
	}
}

// TestProfileFlags checks that -cpuprofile, -memprofile and -trace leave
// non-empty files behind without touching the run's output, and that an
// unwritable path is an error rather than a silently missing file.
func TestProfileFlags(t *testing.T) {
	proftest.CheckFlags(t, run, []string{"-app", "push-gossip", "-strategy", "simple:10", "-n", "60", "-rounds", "20", "-seed", "7"})
}

// TestListGolden pins the -list output: the names of every experiment
// dimension, in the order the flag help and the docs show them. Regenerate
// with go test -run TestListGolden -update.
func TestListGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "list.txt")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("-list output diverged from %s:\n%s", path, out.String())
	}
}
