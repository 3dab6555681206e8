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
// switch, or a simple strategy that waited for a > C, would break it.
func TestStrategyIdentities(t *testing.T) {
	for _, c := range []struct{ app, scenario string }{
		{"push-gossip", "failure-free"},
		{"push-gossip", "smartphone-trace"},
		{"gossip-learning", "failure-free"},
		{"gossip-learning", "smartphone-trace"},
		{"blockcast", "failure-free"},
		{"blockcast", "smartphone-trace"},
		{"chaotic-iteration", "failure-free"},
	} {
		t.Run(c.app+"/"+c.scenario, func(t *testing.T) {
			body := func(strategy string) string {
				var out strings.Builder
				err := run([]string{
					"-app", c.app, "-strategy", strategy, "-scenario", c.scenario,
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
