package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/netmodel"
)

// The network models, as self-registering drivers — the fourth registry
// dimension next to applications, scenarios/strategies and runtimes. A
// NetworkDriver turns a spec string such as "exponential:1.728" or
// "zones:4:0.5:3" into the netmodel.Model one repetition runs under, and
// every message of the run goes through that model; the default
// ConstantNetwork is the paper's fixed TransferDelay.

// ConstantNetwork is the default network driver: every message is delivered
// after the configured TransferDelay, exactly as in the paper's evaluation.
// Its Model is netmodel.Constant{D: TransferDelay}, which draws no
// randomness. The spec form "constant:2.5" fixes the delay instead.
var ConstantNetwork NetworkDriver = constantNetwork{}

// IsDefaultNetwork reports whether d is the default constant-TransferDelay
// network, whose label the output formats suppress so default output keeps
// its historical form. A nil driver counts as default, since WithDefaults
// resolves nil to ConstantNetwork.
func IsDefaultNetwork(d NetworkDriver) bool {
	return d == nil || d == ConstantNetwork
}

func init() {
	MustRegisterNetwork("constant", func(args []string) (NetworkDriver, error) {
		if len(args) == 0 {
			return ConstantNetwork, nil
		}
		if len(args) > 1 {
			return nil, fmt.Errorf("experiment: unexpected trailing parameter(s) %v (want constant[:delay])", args[1:])
		}
		d, err := parseNetFloat("constant", "delay", args[0])
		if err != nil {
			return nil, err
		}
		m, err := netmodel.NewConstant(d)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		return newModelNetwork("constant", m), nil
	}, "fixed")
	MustRegisterNetwork("uniform", func(args []string) (NetworkDriver, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("experiment: network uniform takes exactly two parameters (uniform:lo:hi), got %v", args)
		}
		lo, err := parseNetFloat("uniform", "lo", args[0])
		if err != nil {
			return nil, err
		}
		hi, err := parseNetFloat("uniform", "hi", args[1])
		if err != nil {
			return nil, err
		}
		m, err := netmodel.NewUniform(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		return newModelNetwork("uniform", m), nil
	}, "jitter")
	MustRegisterNetwork("exponential", func(args []string) (NetworkDriver, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("experiment: network exponential takes exactly one parameter (exponential:mean), got %v", args)
		}
		mean, err := parseNetFloat("exponential", "mean", args[0])
		if err != nil {
			return nil, err
		}
		m, err := netmodel.NewExponential(mean)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		return newModelNetwork("exponential", m), nil
	}, "exp")
	MustRegisterNetwork("lognormal", func(args []string) (NetworkDriver, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("experiment: network lognormal takes exactly two parameters (lognormal:mu:sigma), got %v", args)
		}
		mu, err := parseNetFloat("lognormal", "mu", args[0])
		if err != nil {
			return nil, err
		}
		sigma, err := parseNetFloat("lognormal", "sigma", args[1])
		if err != nil {
			return nil, err
		}
		m, err := netmodel.NewLogNormal(mu, sigma)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		return newModelNetwork("lognormal", m), nil
	})
	MustRegisterNetwork("zones", func(args []string) (NetworkDriver, error) {
		if len(args) != 3 {
			return nil, fmt.Errorf("experiment: network zones takes exactly three parameters (zones:k:intra:inter), got %v", args)
		}
		k, err := strconv.Atoi(strings.TrimSpace(args[0]))
		if err != nil {
			return nil, fmt.Errorf("experiment: bad zones count %q: %v", args[0], err)
		}
		intra, err := parseNetFloat("zones", "intra", args[1])
		if err != nil {
			return nil, err
		}
		inter, err := parseNetFloat("zones", "inter", args[2])
		if err != nil {
			return nil, err
		}
		m, err := netmodel.NewZones(k, intra, inter)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		return newModelNetwork("zones", m), nil
	}, "wan")
	MustRegisterNetwork("lossy", func(args []string) (NetworkDriver, error) {
		if len(args) < 2 {
			return nil, fmt.Errorf("experiment: network lossy takes a probability and an inner spec (lossy:p:model[:params]), got %v", args)
		}
		p, err := parseNetFloat("lossy", "probability", args[0])
		if err != nil {
			return nil, err
		}
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("experiment: network lossy probability %g outside [0,1]", p)
		}
		inner, err := ParseNetwork(strings.Join(args[1:], ":"))
		if err != nil {
			return nil, err
		}
		return lossyNetwork{p: p, inner: inner}, nil
	})
}

// parseNetFloat parses one spec parameter as a finite float.
func parseNetFloat(model, field, s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("experiment: bad network %s %s %q (want a finite number)", model, field, s)
	}
	return v, nil
}

// NetworkDriver supplies the network model of an experiment: the per-message
// latency and loss behaviour one repetition runs under. The built-ins are
// registered under "constant" (the default), "uniform", "exponential",
// "lognormal", "zones" and "lossy"; external models plug in through
// MustRegisterNetwork.
type NetworkDriver interface {
	// Name is the canonical registry name, used by ParseNetwork and in
	// Config.Label.
	Name() string
	// Model builds the latency/loss model for the given (defaulted) config.
	// It must return a model: the run's Host draws every message's loss and
	// delay from it, and no environment has a delay of its own.
	Model(cfg Config) (netmodel.Model, error)
}

// newModelNetwork wraps a fixed netmodel.Model as a NetworkDriver. The
// driver's label is the model's String form when it has one, so
// parameterized models stay distinguishable in experiment labels.
func newModelNetwork(name string, m netmodel.Model) NetworkDriver {
	return modelNetwork{name: name, model: m}
}

type modelNetwork struct {
	name  string
	model netmodel.Model
}

func (d modelNetwork) Name() string { return d.name }

func (d modelNetwork) String() string {
	if s, ok := d.model.(fmt.Stringer); ok {
		return s.String()
	}
	return d.name
}

func (d modelNetwork) Model(Config) (netmodel.Model, error) { return d.model, nil }

// constantNetwork is the parameter-free default: the config's TransferDelay
// as a Constant model.
type constantNetwork struct{}

func (constantNetwork) Name() string   { return "constant" }
func (constantNetwork) String() string { return "constant" }

func (constantNetwork) Model(cfg Config) (netmodel.Model, error) {
	return netmodel.Constant{D: cfg.TransferDelay}, nil
}

// lossyNetwork composes an independent loss lottery with any inner network
// driver. The inner model is built per config, so "lossy:0.01:constant"
// inherits the config's TransferDelay.
type lossyNetwork struct {
	p     float64
	inner NetworkDriver
}

func (lossyNetwork) Name() string { return "lossy" }

func (d lossyNetwork) String() string { return fmt.Sprintf("lossy:%g:%s", d.p, DriverLabel(d.inner)) }

func (d lossyNetwork) Model(cfg Config) (netmodel.Model, error) {
	inner, err := d.inner.Model(cfg)
	if err != nil {
		return nil, err
	}
	m, err := netmodel.NewLossy(d.p, inner)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return m, nil
}

// networkModel builds the network model of a (defaulted) config, rejecting a
// driver that returns none.
func networkModel(cfg Config) (netmodel.Model, error) {
	m, err := cfg.Network.Model(cfg)
	if err == nil && m == nil {
		err = fmt.Errorf("experiment: network %s returned no model", DriverLabel(cfg.Network))
	}
	return m, err
}
