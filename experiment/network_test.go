package experiment

import (
	"fmt"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/netmodel"
)

// networkTestConfig is a small, fast experiment used by the network-model
// suite.
func networkTestConfig(t *testing.T) Config {
	t.Helper()
	app, err := ParseApplication("gossip-learning")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseStrategySpec("randomized:5:10")
	if err != nil {
		t.Fatal(err)
	}
	return Config{App: app, Strategy: spec, N: 60, Rounds: 20, Seed: 7}
}

func runNetwork(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func seriesEqual(a, b *metrics.Series) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ta, va := a.At(i)
		tb, vb := b.At(i)
		if ta != tb || va != vb {
			return false
		}
	}
	return true
}

// TestParseNetwork exercises the registry round trip for every built-in
// model family plus the error paths.
func TestParseNetwork(t *testing.T) {
	valid := map[string]string{
		"constant":                 "constant",
		"fixed":                    "constant",
		"constant:2.5":             "constant:2.5",
		"uniform:0.5:3":            "uniform:0.5:3",
		"exponential:1.728":        "exponential:1.728",
		"exp:2":                    "exponential:2",
		"lognormal:0.3:0.8":        "lognormal:0.3:0.8",
		"zones:4:0.5:3":            "zones:4:0.5:3",
		"wan:2:1:5":                "zones:2:1:5",
		"lossy:0.01:exponential:2": "lossy:0.01:exponential:2",
		"lossy:0.1:constant":       "lossy:0.1:constant",
	}
	for spec, label := range valid {
		d, err := ParseNetwork(spec)
		if err != nil {
			t.Errorf("ParseNetwork(%q) failed: %v", spec, err)
			continue
		}
		if got := DriverLabel(d); got != label {
			t.Errorf("ParseNetwork(%q) label = %q, want %q", spec, got, label)
		}
	}
	invalid := []string{
		"", "bogus", "constant:x", "constant:1:2", "uniform:1", "uniform:3:1",
		"exponential", "exponential:0", "exponential:-1", "lognormal:0",
		"zones:0:1:2", "zones:2:1", "zones:x:1:2", "lossy:0.5", "lossy:2:constant",
		"lossy:0.5:bogus", "lognormal:710:0",
	}
	for _, spec := range invalid {
		if _, err := ParseNetwork(spec); err == nil {
			t.Errorf("ParseNetwork(%q) succeeded, want error", spec)
		}
	}
	if !contains(Networks(), "constant") || !contains(Networks(), "zones") {
		t.Errorf("Networks() = %v, missing built-ins", Networks())
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestDefaultNetworkByteIdentical pins the acceptance criterion: an
// unspecified network, the parsed "constant" spec and an explicit
// "constant:1.728" must all reproduce the identical run.
func TestDefaultNetworkByteIdentical(t *testing.T) {
	base := runNetwork(t, networkTestConfig(t))

	viaParse := networkTestConfig(t)
	net, err := ParseNetwork("constant")
	if err != nil {
		t.Fatal(err)
	}
	viaParse.Network = net
	parsed := runNetwork(t, viaParse)

	if base.MessagesSent != parsed.MessagesSent || !seriesEqual(base.Metric, parsed.Metric) {
		t.Error("parsed \"constant\" network diverged from the default run")
	}
	if base.Config.Label() != parsed.Config.Label() {
		t.Errorf("default label changed: %q vs %q", base.Config.Label(), parsed.Config.Label())
	}
	// An explicit constant model with the default TransferDelay is the same
	// model under another label, so it must produce the same results.
	viaModel := networkTestConfig(t)
	viaModel.Network, err = ParseNetwork("constant:1.728")
	if err != nil {
		t.Fatal(err)
	}
	modeled := runNetwork(t, viaModel)
	if base.MessagesSent != modeled.MessagesSent || !seriesEqual(base.Metric, modeled.Metric) {
		t.Error("explicit constant:1.728 model diverged from the default network")
	}
}

// TestNetworkModelsDeterministic runs every non-constant model family twice:
// the results must be bit-identical, extending the determinism guarantee to
// variable-gap event streams.
func TestNetworkModelsDeterministic(t *testing.T) {
	specs := []string{
		"uniform:0.5:3",
		"exponential:1.728",
		"lognormal:0.3:0.8",
		"zones:4:0.5:3",
		"lossy:0.1:exponential:2",
	}
	for _, spec := range specs {
		t.Run(strings.ReplaceAll(spec, ":", "_"), func(t *testing.T) {
			cfg := networkTestConfig(t)
			var err error
			cfg.Network, err = ParseNetwork(spec)
			if err != nil {
				t.Fatal(err)
			}
			res := runNetwork(t, cfg)
			again := runNetwork(t, cfg)
			if res.MessagesSent != again.MessagesSent || !seriesEqual(res.Metric, again.Metric) {
				t.Fatal("repeated run diverged")
			}
		})
	}
}

// TestNetworkChangesResults is the sanity check that non-constant models
// actually take effect: an exponential network must not reproduce the
// constant-delay run bit-for-bit.
func TestNetworkChangesResults(t *testing.T) {
	base := runNetwork(t, networkTestConfig(t))
	cfg := networkTestConfig(t)
	var err error
	cfg.Network, err = ParseNetwork("exponential:1.728")
	if err != nil {
		t.Fatal(err)
	}
	exp := runNetwork(t, cfg)
	if seriesEqual(base.Metric, exp.Metric) {
		t.Error("exponential network produced the identical metric series as the constant one")
	}
	if got := exp.Config.Label(); !strings.Contains(got, "net=exponential:1.728") {
		t.Errorf("label %q does not name the non-default network", got)
	}
}

// TestLossyNetworkDropsTraffic checks that model-level loss shows up in the
// message accounting.
func TestLossyNetworkDropsTraffic(t *testing.T) {
	base := runNetwork(t, networkTestConfig(t))
	cfg := networkTestConfig(t)
	cfg.Network = Network{model: netmodel.Constant{D: 1}, loss: []float64{1}}
	res := runNetwork(t, cfg)
	if res.MessagesSent == 0 {
		t.Fatal("no messages sent")
	}
	if seriesEqual(base.Metric, res.Metric) {
		t.Error("dropping every message left the metric series unchanged")
	}
	if res.MessagesSent >= base.MessagesSent {
		// With every message lost, no receipt ever triggers reactive sends,
		// so total traffic must fall below the lossless run's.
		t.Errorf("lossy run sent %.0f messages, lossless %.0f — expected fewer",
			res.MessagesSent, base.MessagesSent)
	}
}

// TestNetworkValidationInConfig checks that a network whose model cannot be
// built fails experiment validation with an "experiment:" error.
func TestNetworkValidationInConfig(t *testing.T) {
	cfg := networkTestConfig(t)
	cfg.Network = Network{loss: []float64{2}}
	if _, err := Run(cfg); err == nil || !strings.HasPrefix(err.Error(), "experiment:") {
		t.Errorf("config with a loss probability of 2: err = %v, want an experiment: error", err)
	}
}

// TestDefaultNetworkFollowsTransferDelay pins that the zero Network (the
// parsed "constant"), and "lossy:" layers around it, build the config's
// TransferDelay rather than the paper's 1.728 s, while an explicit delay
// stays as given.
func TestDefaultNetworkFollowsTransferDelay(t *testing.T) {
	cfg := Config{TransferDelay: 3.456}
	for spec, want := range map[string]string{
		"constant":                     "constant:3.456",
		"lossy:0.01:constant":          "lossy:0.01:constant:3.456",
		"lossy:0.2:lossy:0.1:constant": "lossy:0.2:lossy:0.1:constant:3.456",
		"constant:2.5":                 "constant:2.5",
	} {
		n, err := ParseNetwork(spec)
		if err != nil {
			t.Fatalf("ParseNetwork(%q): %v", spec, err)
		}
		m, err := n.Model(cfg)
		if err != nil {
			t.Fatalf("%q: Model: %v", spec, err)
		}
		if got := fmt.Sprint(m); got != want {
			t.Errorf("%q builds %q, want %q", spec, got, want)
		}
	}
}
