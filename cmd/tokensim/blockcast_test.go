package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runBlockcastSim runs the blockcast golden configuration: arrival-driven
// transactions (poisson) on a zoned network, with the token series on so the
// whole output surface is pinned.
func runBlockcastSim(t *testing.T, extra ...string) string {
	t.Helper()
	var out strings.Builder
	args := []string{
		"-app", "blockcast",
		"-strategy", "randomized:5:10",
		"-workload", "poisson:0.25",
		"-network", "zones:4:0.5:3",
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

// TestBlockcastByteIdentity checks the blockcast summary surface (byte
// totals, commit latency quantiles, peak burst) and that two sequential runs
// agree: sim:shards=1 builds the sequential engine (TestSimRuntimeBuildsItsEnv
// in experiment), so the second run is a rerun, not a sharded one.
// TestBlockcastGoldenByteIdentity pins the output against recorded files.
func TestBlockcastByteIdentity(t *testing.T) {
	base := runBlockcastSim(t)
	for _, want := range []string{
		"# blockcast/",
		"# bytes sent: ",
		"# commit_latency_p50_s: ",
		"# commit_latency_p99_s: ",
		"# peak_node_burst_bytes: ",
	} {
		if !strings.Contains(base, want) {
			t.Errorf("blockcast output missing %q:\n%s", want, base)
		}
	}
	if got := runBlockcastSim(t, "-runtime", "sim:shards=1"); got != base {
		t.Error("sim:shards=1 diverged from the sequential engine")
	}
}

// goldenBlockcastCases maps each golden file under testdata/golden-blockcast
// to the complete tokensim arguments that produce it: one sequential run
// under churn, lossy zones and Poisson arrivals with the token series, one
// sharded run with a parameterized chain. Together they pin the byte
// accounting ("# bytes sent", peak_node_burst_bytes) of every message kind.
var goldenBlockcastCases = map[string][]string{
	"smartphone-lossy-zones-poisson": {"-app", "blockcast", "-strategy", "randomized:5:10", "-scenario", "smartphone-trace", "-network", "lossy:0.05:zones:4:0.5:3", "-workload", "poisson:0.2", "-n", "1000", "-rounds", "40", "-tokens"},
	"batch-32_zones-8_shards-2":      {"-app", "blockcast:32:86.4", "-strategy", "simple:10", "-network", "zones:8:0.5:3", "-runtime", "sim:shards=2", "-n", "2000", "-rounds", "40"},
}

// TestBlockcastGoldenByteIdentity requires each blockcast case to reproduce
// its golden file byte for byte.
func TestBlockcastGoldenByteIdentity(t *testing.T) {
	for name, args := range goldenBlockcastCases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden-blockcast", name+".tsv"))
			if err != nil {
				t.Fatalf("missing golden file for %s: %v (regenerate with the args in goldenBlockcastCases)", name, err)
			}
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("blockcast output diverged from golden-blockcast file %s", name)
			}
		})
	}
}

// TestBlockcastShardedSelfDeterminism requires run-to-run byte identity on
// the sharded engine: the blockcast message economy (pull round trips, the
// token-gated block path, byte accounting) must stay a pure function of the
// seed under parallel execution.
func TestBlockcastShardedSelfDeterminism(t *testing.T) {
	a := runBlockcastSim(t, "-runtime", "sim:shards=2")
	b := runBlockcastSim(t, "-runtime", "sim:shards=2")
	if a != b {
		t.Error("two identical sharded blockcast runs diverged")
	}
	if !strings.Contains(a, "shards=2") {
		t.Errorf("sharded run label does not carry the shard count:\n%s", strings.SplitN(a, "\n", 2)[0])
	}
}

// TestBlockcastChurnDeterminism runs blockcast under a churny scenario so the
// rejoin pull and the online-quorum commit rule are exercised, and requires
// run-to-run byte identity.
func TestBlockcastChurnDeterminism(t *testing.T) {
	a := runBlockcastSim(t, "-scenario", "crash-burst:0.4")
	b := runBlockcastSim(t, "-scenario", "crash-burst:0.4")
	if a != b {
		t.Error("two identical churny blockcast runs diverged")
	}
}

// TestBlockcastParamsAndErrors covers the parameterized application spec and
// its error paths.
func TestBlockcastParamsAndErrors(t *testing.T) {
	out := runBlockcastSim(t, "-app", "blockcast:8:86.4")
	if !strings.Contains(out, "# blockcast:8:86.4/") {
		t.Errorf("parameterized label missing:\n%s", strings.SplitN(out, "\n", 2)[0])
	}

	for _, args := range [][]string{
		{"-app", "blockcast:0"},                          // batch cap below 1
		{"-app", "blockcast:8:0"},                        // non-positive interval
		{"-app", "blockcast:8:86.4:extra"},               // too many parameters
		{"-app", "blockcast:x"},                          // non-numeric batch cap
		{"-app", "gossip-learning:8"},                    // parameters on a parameter-free app
		{"-app", "blockcast", "-audit"},                  // free pulls break the audit envelope
		{"-app", "blockcast", "-workload", "interval:0"}, // bad workload still rejected
	} {
		var out strings.Builder
		if err := run(append(args, "-n", "50", "-rounds", "5"), &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
