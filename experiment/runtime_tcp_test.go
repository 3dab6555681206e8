package experiment_test

import (
	"runtime"
	"testing"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/live"
)

func TestParseLiveTCPRuntime(t *testing.T) {
	for _, spec := range []string{"live-tcp", "tcp"} {
		d, err := experiment.ParseRuntime(spec)
		if err != nil {
			t.Fatalf("ParseRuntime(%q): %v", spec, err)
		}
		if d.Name() != "live-tcp" || experiment.DriverLabel(d) != "live-tcp" {
			t.Errorf("ParseRuntime(%q) renders as %q/%q", spec, d.Name(), experiment.DriverLabel(d))
		}
	}
	d, err := experiment.ParseRuntime("live-tcp:0.001")
	if err != nil {
		t.Fatal(err)
	}
	if experiment.DriverLabel(d) != "live-tcp(x0.001)" {
		t.Errorf("parameterized live-tcp runtime renders as %q", experiment.DriverLabel(d))
	}
	for _, bad := range []string{"live-tcp:0", "live-tcp:-1", "live-tcp:abc", "live-tcp:1:2", "live-tcp:Inf"} {
		if _, err := experiment.ParseRuntime(bad); err == nil {
			t.Errorf("ParseRuntime(%q) accepted", bad)
		}
	}
}

// TestLiveRuntimesPickTheirTransport checks that the one live driver type
// builds the environment its name promises: "live" delivers in process and
// starts no goroutine, "live-tcp" runs on loopback sockets and starts at
// least one accept loop per node, each with the configured number of node
// slots, parameterized or not.
func TestLiveRuntimesPickTheirTransport(t *testing.T) {
	for _, c := range []struct {
		spec string
		tcp  bool
	}{{"live:0.5", false}, {"live-tcp:0.5", true}} {
		t.Run(c.spec, func(t *testing.T) {
			d, err := experiment.ParseRuntime(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			goroutines := runtime.NumGoroutine()
			env, err := d.NewEnv(experiment.Config{N: 4}, 1)
			started := runtime.NumGoroutine() - goroutines
			if err != nil {
				t.Fatal(err)
			}
			le, ok := env.(*live.Env)
			if !ok {
				t.Fatalf("NewEnv returned %T, want *live.Env", env)
			}
			defer le.Close()
			if c.tcp && started < 4 {
				t.Errorf("NewEnv started %d goroutines for 4 TCP nodes, want ≥ 4", started)
			}
			if !c.tcp && started > 0 {
				t.Errorf("NewEnv started %d goroutines in process, want 0", started)
			}
			if n := le.Availability().N(); n != 4 {
				t.Errorf("env has %d node slots, want 4", n)
			}
		})
	}
}

// TestLiveTCPRuntimeMatchesSim is the in-process cross-check of the socket
// stack against the simulator: the same nominal push-gossip configuration
// runs on the discrete-event engine and on real loopback TCP sockets, and
// the trajectory statistics must agree within a stated tolerance.
//
// The sampling grid is runtime-neutral and must match exactly. Message
// counts and the lag trajectory are wall-clock sensitive (socket latency,
// scheduler jitter), so they get coarser bounds: the token-account rate
// limit caps traffic at one message per node per round on every runtime,
// and the mean update lag must stay within 3x of the simulated mean — far
// apart from the failure modes this test exists to catch (messages not
// crossing the wire at all, or the lag diverging because word frames
// decode wrongly).
func TestLiveTCPRuntimeMatchesSim(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time run")
	}
	cfg := experiment.Config{
		App:      experiment.PushGossip,
		Strategy: experiment.Randomized(5, 10),
		N:        16,
		OverlayK: 8,
		Rounds:   8,
		Seed:     7,
	}
	simRes, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcpCfg := cfg
	tcpCfg.Runtime = experiment.LiveTCPRuntime
	tcpRes, err := experiment.Run(tcpCfg)
	if err != nil {
		t.Fatal(err)
	}

	if simRes.Metric.Len() != tcpRes.Metric.Len() {
		t.Fatalf("sample counts differ: sim %d vs live-tcp %d", simRes.Metric.Len(), tcpRes.Metric.Len())
	}
	for i, ts := range simRes.Metric.Times {
		if tcpRes.Metric.Times[i] != ts {
			t.Fatalf("sample %d at %v (live-tcp) vs %v (sim): grids must match", i, tcpRes.Metric.Times[i], ts)
		}
	}

	if tcpRes.MessagesSent == 0 {
		t.Fatal("live-tcp run sent no messages")
	}
	if tcpRes.MessagesPerNodePerRound > 1.01 {
		t.Errorf("live-tcp exceeded the rate budget: %v messages/node/round", tcpRes.MessagesPerNodePerRound)
	}
	if simRes.MessagesPerNodePerRound > 1.01 {
		t.Errorf("sim exceeded the rate budget: %v messages/node/round", simRes.MessagesPerNodePerRound)
	}

	simMean, tcpMean := simRes.Metric.Mean(), tcpRes.Metric.Mean()
	if simMean <= 0 || tcpMean <= 0 {
		t.Fatalf("degenerate lag means: sim %v, live-tcp %v", simMean, tcpMean)
	}
	if ratio := tcpMean / simMean; ratio > 3 || ratio < 1.0/3 {
		t.Errorf("mean update lag diverged: live-tcp %v vs sim %v (ratio %v)", tcpMean, simMean, ratio)
	}
}
