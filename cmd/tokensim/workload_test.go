package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/workload"
)

// workloadCases lists one spec per built-in arrival-process family, run on
// the arrival-driven push gossip application. The interval spec deliberately
// differs from the default injection interval so the generic arrival path is
// exercised, not the legacy Every loop.
var workloadCases = map[string]string{
	"interval":     "interval:30",
	"poisson":      "poisson:0.5",
	"pareto-onoff": "pareto-onoff:2:30:90:1.5",
	"diurnal":      "diurnal:3600:0.8:poisson:0.5",
	"flashcrowd":   "flashcrowd:600:10:120:poisson:0.5",
}

func runWorkloadSim(t *testing.T, spec string, extra ...string) string {
	t.Helper()
	var out strings.Builder
	args := []string{
		"-app", "push-gossip",
		"-strategy", "generalized:5:10",
		"-workload", spec,
		"-n", "60",
		"-rounds", "20",
		"-reps", "2",
		"-seed", "7",
		"-tokens",
	}
	args = append(args, extra...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestWorkloadMatrixByteIdentity runs every built-in generator family twice
// on the sequential engine and requires the two runs to agree byte for byte
// (the second run's sim:shards=1 builds the sequential engine too, see
// TestSimRuntimeBuildsItsEnv in experiment), and checks the label and the
// skipped-injections line. No golden file backs it.
func TestWorkloadMatrixByteIdentity(t *testing.T) {
	for name, spec := range workloadCases {
		t.Run(name, func(t *testing.T) {
			base := runWorkloadSim(t, spec)
			if !strings.Contains(base, "/wl="+spec) {
				t.Errorf("label does not carry the workload:\n%s", strings.SplitN(base, "\n", 2)[0])
			}
			if !strings.Contains(base, "# injections skipped") {
				t.Error("non-default workload output missing the skipped-injections line")
			}
			if got := runWorkloadSim(t, spec, "-runtime", "sim:shards=1"); got != base {
				t.Errorf("sim:shards=1 diverged from the sequential engine under workload %s", spec)
			}
		})
	}
}

// TestWorkloadShardedSelfDeterminism runs every generator family on the
// sharded engine (which needs a zoned network model for a positive
// cross-shard lookahead) and requires run-to-run byte identity: arrival
// sampling must stay a pure function of the seed under parallel execution.
func TestWorkloadShardedSelfDeterminism(t *testing.T) {
	for name, spec := range workloadCases {
		t.Run(name, func(t *testing.T) {
			a := runWorkloadSim(t, spec, "-network", "zones:4:0.5:3", "-runtime", "sim:shards=2")
			b := runWorkloadSim(t, spec, "-network", "zones:4:0.5:3", "-runtime", "sim:shards=2")
			if a != b {
				t.Errorf("two identical sharded runs diverged under workload %s", spec)
			}
			if !strings.Contains(a, "shards=2") {
				t.Errorf("sharded run label does not carry the shard count:\n%s", strings.SplitN(a, "\n", 2)[0])
			}
		})
	}
}

// TestWorkloadReplayByteIdentity pins the record→replay acceptance
// criterion end to end: recording a workload's arrival stream and replaying
// it through -workload replay:<path> reproduces the generated run
// byte-for-byte, except for the label line naming the workload.
func TestWorkloadReplayByteIdentity(t *testing.T) {
	const spec = "poisson:0.5"
	live := runWorkloadSim(t, spec, "-reps", "1")

	parsed, err := workload.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 20 rounds × Δ = 172.8 s; record past the horizon so the stream covers
	// the whole run.
	stream, err := workload.Record(parsed, workload.ArrivalSeed(7), 20*172.8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "arrivals.stream")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := runWorkloadSim(t, "replay:"+path, "-reps", "1")

	stripLabel := func(s string) string {
		lines := strings.SplitN(s, "\n", 2)
		if len(lines) != 2 || !strings.HasPrefix(lines[0], "# ") {
			t.Fatalf("output does not start with a label line:\n%s", s)
		}
		return lines[1]
	}
	if stripLabel(live) != stripLabel(replayed) {
		t.Error("replayed stream output diverged from the live-sampled run")
	}
	if !strings.Contains(replayed, "/wl=replay:") {
		t.Errorf("replay label missing:\n%s", strings.SplitN(replayed, "\n", 2)[0])
	}
}

// TestWorkloadErrors covers the -workload flag error paths.
func TestWorkloadErrors(t *testing.T) {
	cases := [][]string{
		{"-workload", "bogus"},
		{"-workload", "poisson:0"},
		{"-workload", "replay:/nonexistent/arrivals.stream"},
		// gossip-learning ignores arrivals; pairing it with a non-default
		// workload must be rejected, not silently run the default traffic.
		{"-app", "gossip-learning", "-workload", "poisson:0.5"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(append(args, "-n", "50", "-rounds", "5"), &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
