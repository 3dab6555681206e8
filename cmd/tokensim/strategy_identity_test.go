package main

import (
	"strings"
	"testing"
)

// TestStrategyIdentities checks that the purely proactive strategy and the
// simple token account with capacity 0 give the same run, byte for byte on
// everything below the label line, at the golden matrix's size: with C = 0
// a simple account sends exactly when it holds a token, which is every Δ,
// and never reacts. A family that took another path through the strategy
// switch, or a simple strategy that waited for a > C, would break it. The
// identity holds on every network and under every scenario: push gossip,
// gossip learning and blockcast run under all four scenarios, chaotic
// iteration (whose metric is undefined under churn) failure-free, each on
// the default network and three that draw randomness.
func TestStrategyIdentities(t *testing.T) {
	type pair struct{ app, scenario string }
	var pairs []pair
	for _, app := range []string{"push-gossip", "gossip-learning", "blockcast"} {
		for _, scenario := range []string{"failure-free", "smartphone-trace", "crash-burst:0.4", "outage"} {
			pairs = append(pairs, pair{app, scenario})
		}
	}
	pairs = append(pairs, pair{"chaotic-iteration", "failure-free"})
	for _, network := range []string{"constant", "exponential:1.728", "zones:4:0.5:3", "lossy:0.1:uniform:0.5:3"} {
		for _, c := range pairs {
			t.Run(c.app+"/"+c.scenario+"/"+network, func(t *testing.T) {
				body := func(strategy string) string {
					var out strings.Builder
					err := run([]string{
						"-app", c.app, "-strategy", strategy, "-scenario", c.scenario, "-network", network,
						"-n", "60", "-rounds", "20", "-reps", "2", "-seed", "7", "-tokens",
					}, &out)
					if err != nil {
						t.Fatal(err)
					}
					_, rest, _ := strings.Cut(out.String(), "\n")
					return rest
				}
				proactive, simple := body("proactive"), body("simple:0")
				if proactive == "" {
					t.Fatal("empty output below the label line")
				}
				if proactive != simple {
					t.Errorf("-strategy proactive and simple:0 diverged below the label line:\n%s\nvs\n%s", proactive, simple)
				}
			})
		}
	}
}
