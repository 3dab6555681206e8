package main

import (
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

// TestBlockcastByteIdentity extends the golden matrix to the blockcast
// application: sim:shards=1 must route through the exact sequential engine. The summary
// surface (byte totals, commit latency quantiles, peak burst) is part of the
// pinned output.
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
