package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenConfigs returns the tokensim arguments of every golden-matrix and
// golden-network configuration, keyed by a display name. It is the shared
// config inventory of the sharded equivalence tests.
func goldenConfigs(t *testing.T) map[string][]string {
	t.Helper()
	configs := make(map[string][]string)
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
		strategy := strings.NewReplacer("randomized-5-10", "randomized:5:10").Replace(parts[1])
		scenario := strings.NewReplacer("crash-burst-0.4", "crash-burst:0.4").Replace(parts[2])
		configs[name] = []string{"-app", parts[0], "-strategy", strategy, "-scenario", scenario}
	}
	for name, args := range goldenNetworkCases {
		configs["network_"+name] = append([]string{}, args...)
	}
	return configs
}

// shardable reports whether a config supports conservative sharding: the
// exponential model's minimum delay is zero, so it has no positive lookahead.
func shardable(args []string) bool {
	for _, a := range args {
		if strings.HasPrefix(a, "exponential:") {
			return false
		}
	}
	return true
}

func runGolden(t *testing.T, args []string, extra ...string) string {
	t.Helper()
	var out strings.Builder
	full := append([]string{"-n", "60", "-rounds", "20", "-reps", "2", "-seed", "7", "-tokens"}, args...)
	full = append(full, extra...)
	if err := run(full, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestShardedSelfDeterminism requires every shardable golden configuration to
// be run-to-run deterministic for shards ∈ {2, 4, 8}: the parallel schedule
// must depend only on (seed, shard count), never on goroutine timing. The
// shard count appears in the output label, so the comparison is strictly
// within one shard count.
func TestShardedSelfDeterminism(t *testing.T) {
	for name, args := range goldenConfigs(t) {
		if !shardable(args) {
			continue
		}
		for _, shards := range []string{"2", "4", "8"} {
			t.Run(name+"/shards="+shards, func(t *testing.T) {
				a := runGolden(t, args, "-runtime", "sim:shards="+shards)
				b := runGolden(t, args, "-runtime", "sim:shards="+shards)
				if a != b {
					t.Errorf("two identical sharded runs diverged (shards=%s)", shards)
				}
				if !strings.Contains(a, "shards="+shards) {
					t.Errorf("sharded run label does not carry the shard count:\n%s", strings.SplitN(a, "\n", 2)[0])
				}
			})
		}
	}
}

// goldenShardedCases maps each golden file under testdata/golden-sharded to
// the tokensim arguments that produce it (runGolden adds the size, seed and
// -tokens). The default constant network is covered at two shard counts,
// since its contiguous shard plan and lookahead come from the network model;
// zones and a churn scenario on zones cover the WAN plan.
var goldenShardedCases = map[string][]string{
	"push_constant_shards-2":         {"-app", "push-gossip", "-strategy", "randomized:5:10", "-runtime", "sim:shards=2"},
	"push_constant_shards-4":         {"-app", "push-gossip", "-strategy", "randomized:5:10", "-runtime", "sim:shards=4"},
	"push_zones_shards-2":            {"-app", "push-gossip", "-strategy", "generalized:1:10", "-network", "zones:4:0.5:3", "-runtime", "sim:shards=2"},
	"push_smartphone-zones_shards-2": {"-app", "push-gossip", "-strategy", "randomized:5:10", "-scenario", "smartphone-trace", "-network", "zones:4:0.5:3", "-runtime", "sim:shards=2"},
}

// TestShardedGoldenByteIdentity pins sharded runs against recorded output,
// not only against themselves: each case must reproduce its golden file
// byte for byte.
func TestShardedGoldenByteIdentity(t *testing.T) {
	for name, args := range goldenShardedCases {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden-sharded", name+".tsv"))
			if err != nil {
				t.Fatalf("missing golden file for %s: %v (regenerate with the args in goldenShardedCases)", name, err)
			}
			if got := runGolden(t, args); got != string(want) {
				t.Errorf("sharded output diverged from golden-sharded file %s", name)
			}
		})
	}
}

// TestShardedErrors covers the sharded spec error paths.
func TestShardedErrors(t *testing.T) {
	cases := [][]string{
		{"-runtime", "sim:shards=2", "-network", "exponential:1.728"}, // no positive lookahead
		{"-runtime", "sim:shards=0"},
		{"-runtime", "sim:shards=x"},
		{"-runtime", "sim:shards=2:shards=4"},
		{"-runtime", "sim:slab:heap"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestShardedRuntimeSpec exercises the "sim:slab:shards=N" spec form end to
// end, including its label: "slab", the name of the engine's one queue, is
// accepted and left out of the label.
func TestShardedRuntimeSpec(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-app", "push-gossip",
		"-strategy", "randomized:5:10",
		"-network", "zones:4:0.5:3",
		"-runtime", "sim:slab:shards=2",
		"-n", "60",
		"-rounds", "20",
		"-summary",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "sim(shards=2)") {
		t.Errorf("label does not mention the sharded runtime:\n%s", got)
	}
}

// TestShardCountInvariantConfigs checks the shard relation where it holds:
// for these configurations the output below the label line is the same at
// 1, 2 and 4 shards. The one randomness a sharded run draws per shard is the
// network model's, and the constant and zones models draw none; phases,
// node streams and the coordinator's draws do not depend on the shard
// count. So a schedule or routing change that alters which events run, or
// in what order a node sees them, shows here. The smartphone-trace cases run
// the coordinator's churn and rejoin pulls, the -tokens case the token
// balance series as well.
func TestShardCountInvariantConfigs(t *testing.T) {
	zones := []string{"-network", "zones:8:0.5:3"}
	cases := map[string][]string{
		"push/randomized/zones":               append([]string{"-app", "push-gossip", "-strategy", "randomized:5:10"}, zones...),
		"push/randomized/zones/smartphone":    append([]string{"-app", "push-gossip", "-strategy", "randomized:5:10", "-scenario", "smartphone-trace", "-tokens"}, zones...),
		"push/simple/constant":                {"-app", "push-gossip", "-strategy", "simple:10", "-network", "constant"},
		"gossip-learning/simple/zones":        append([]string{"-app", "gossip-learning", "-strategy", "simple:10"}, zones...),
		"chaotic-iteration/simple/zones":      append([]string{"-app", "chaotic-iteration", "-strategy", "simple:10"}, zones...),
		"gossip-learning/randomized/constant": {"-app", "gossip-learning", "-strategy", "randomized:5:10", "-network", "constant"},
		"gossip-learning/simple/smartphone":   {"-app", "gossip-learning", "-strategy", "simple:10", "-scenario", "smartphone-trace"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var first string
			for _, shards := range []string{"1", "2", "4"} {
				var out strings.Builder
				full := append([]string{"-n", "600", "-rounds", "30", "-runtime", "sim:shards=" + shards}, args...)
				if err := run(full, &out); err != nil {
					t.Fatal(err)
				}
				_, body, _ := strings.Cut(out.String(), "\n")
				switch {
				case body == "":
					t.Fatalf("sim:shards=%s: empty output below the label line", shards)
				case first == "":
					first = body
				case body != first:
					t.Errorf("sim:shards=%s diverged from sim:shards=1 below the label line:\n%s\nvs\n%s", shards, body, first)
				}
			}
		})
	}
}
