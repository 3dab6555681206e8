package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/netmodel"
)

// The network models, a fixed set resolved by ParseNetwork. A NetworkDriver
// turns a spec string such as "exponential:1.728" or "zones:4:0.5:3" into the
// netmodel.Model one repetition runs under, and every message of the run goes
// through that model; the default ConstantNetwork is the paper's fixed
// TransferDelay.

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

// ParseNetwork resolves a network spec string "constant[:delay]",
// "uniform:lo:hi", "exponential:mean", "lognormal:mu:sigma",
// "zones:k:intra:inter" or "lossy:p:<network spec>"; "fixed", "jitter",
// "exp" and "wan" name constant, uniform, exponential and zones.
func ParseNetwork(spec string) (NetworkDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	name, args := parts[0], parts[1:]
	var (
		f   []float64
		m   netmodel.Model
		err error
	)
	switch name {
	case "constant", "fixed":
		name = "constant"
		if len(args) == 0 {
			return ConstantNetwork, nil
		}
		if len(args) > 1 {
			return nil, fmt.Errorf("experiment: unexpected trailing parameter(s) %v (want constant[:delay])", args[1:])
		}
		if f, err = netFloats(name, args, "delay"); err != nil {
			return nil, err
		}
		m, err = netmodel.NewConstant(f[0])
	case "uniform", "jitter":
		name = "uniform"
		if f, err = netFloats(name, args, "lo", "hi"); err != nil {
			return nil, err
		}
		m, err = netmodel.NewUniform(f[0], f[1])
	case "exponential", "exp":
		name = "exponential"
		if f, err = netFloats(name, args, "mean"); err != nil {
			return nil, err
		}
		m, err = netmodel.NewExponential(f[0])
	case "lognormal":
		if f, err = netFloats(name, args, "mu", "sigma"); err != nil {
			return nil, err
		}
		m, err = netmodel.NewLogNormal(f[0], f[1])
	case "zones", "wan":
		name = "zones"
		if err = netArity(name, args, "k", "intra", "inter"); err != nil {
			return nil, err
		}
		k, kerr := strconv.Atoi(strings.TrimSpace(args[0]))
		if kerr != nil {
			return nil, fmt.Errorf("experiment: bad zones count %q: %v", args[0], kerr)
		}
		if f, err = netFloats(name, args[1:], "intra", "inter"); err != nil {
			return nil, err
		}
		m, err = netmodel.NewZones(k, f[0], f[1])
	case "lossy":
		if len(args) < 2 {
			return nil, fmt.Errorf("experiment: network lossy takes a probability and an inner spec (lossy:p:model[:params]), got %v", args)
		}
		if f, err = netFloats(name, args[:1], "probability"); err != nil {
			return nil, err
		}
		if f[0] < 0 || f[0] > 1 {
			return nil, fmt.Errorf("experiment: network lossy probability %g outside [0,1]", f[0])
		}
		inner, err := ParseNetwork(strings.Join(args[1:], ":"))
		if err != nil {
			return nil, err
		}
		return lossyNetwork{p: f[0], inner: inner}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown network %q (registered: %s)",
			spec, strings.Join(Networks(), ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return newModelNetwork(name, m), nil
}

// Networks returns the names of the six network models in sorted order.
func Networks() []string {
	return []string{"constant", "exponential", "lognormal", "lossy", "uniform", "zones"}
}

var paramCounts = [...]string{1: "one parameter", 2: "two parameters", 3: "three parameters"}

// netArity checks that args holds exactly the named parameters of model.
func netArity(model string, args []string, names ...string) error {
	if len(args) != len(names) {
		return fmt.Errorf("experiment: network %s takes exactly %s (%s:%s), got %v",
			model, paramCounts[len(names)], model, strings.Join(names, ":"), args)
	}
	return nil
}

// netFloats checks that args holds exactly the named parameters of model and
// parses each as a finite float.
func netFloats(model string, args []string, names ...string) ([]float64, error) {
	if err := netArity(model, args, names...); err != nil {
		return nil, err
	}
	f := make([]float64, len(args))
	for i, arg := range args {
		v, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("experiment: bad network %s %s %q (want a finite number)", model, names[i], arg)
		}
		f[i] = v
	}
	return f, nil
}

// NetworkDriver supplies the network model of an experiment: the per-message
// latency and loss behaviour one repetition runs under: "constant" (the
// default), "uniform", "exponential", "lognormal", "zones" or "lossy".
type NetworkDriver interface {
	// Name is the canonical model name, used by ParseNetwork and in
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
