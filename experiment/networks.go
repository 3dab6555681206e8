package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/netmodel"
)

// Network is the network model of an experiment, a plain value like
// StrategySpec resolved by ParseNetwork from a spec string such as
// "exponential:1.728" or "lossy:0.01:zones:4:0.5:3". Every message of a
// repetition goes through the netmodel.Model that Model builds. The zero
// value is the paper's network (§4.1): every message delivered after the
// config's TransferDelay.
type Network struct {
	// model is the parsed latency model; nil means
	// netmodel.Constant{D: Config.TransferDelay}.
	model netmodel.Model
	// loss holds the probabilities of the "lossy:" layers around model,
	// outermost first.
	loss []float64
}

// IsDefault reports whether n is the paper's constant-TransferDelay network,
// whose label the output formats suppress so default output keeps its
// historical form.
func (n Network) IsDefault() bool { return n.model == nil && len(n.loss) == 0 }

// Name is the canonical model name, the first field of String.
func (n Network) Name() string {
	name, _, _ := strings.Cut(n.String(), ":")
	return name
}

// String renders the network in the spec form ParseNetwork accepts.
func (n Network) String() string {
	s := "constant"
	if n.model != nil {
		s = fmt.Sprint(n.model)
	}
	for i := len(n.loss) - 1; i >= 0; i-- {
		s = fmt.Sprintf("lossy:%g:%s", n.loss[i], s)
	}
	return s
}

// Model builds the latency/loss model of a (defaulted) config. The loss
// layers wrap the model per config, so "lossy:0.01:constant" inherits the
// config's TransferDelay.
func (n Network) Model(cfg Config) (netmodel.Model, error) {
	m := n.model
	if m == nil {
		m = netmodel.Constant{D: cfg.TransferDelay}
	}
	for i := len(n.loss) - 1; i >= 0; i-- {
		l, err := netmodel.NewLossy(n.loss[i], m)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		m = l
	}
	return m, nil
}

// ParseNetwork resolves a network spec string "constant[:delay]",
// "uniform:lo:hi", "exponential:mean", "lognormal:mu:sigma",
// "zones:k:intra:inter" or "lossy:p:<network spec>"; "fixed", "jitter",
// "exp" and "wan" name constant, uniform, exponential and zones.
func ParseNetwork(spec string) (Network, error) {
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
			return Network{}, nil
		}
		if len(args) > 1 {
			return Network{}, fmt.Errorf("experiment: unexpected trailing parameter(s) %v (want constant[:delay])", args[1:])
		}
		if f, err = netFloats(name, args, "delay"); err != nil {
			return Network{}, err
		}
		m, err = netmodel.NewConstant(f[0])
	case "uniform", "jitter":
		name = "uniform"
		if f, err = netFloats(name, args, "lo", "hi"); err != nil {
			return Network{}, err
		}
		m, err = netmodel.NewUniform(f[0], f[1])
	case "exponential", "exp":
		name = "exponential"
		if f, err = netFloats(name, args, "mean"); err != nil {
			return Network{}, err
		}
		m, err = netmodel.NewExponential(f[0])
	case "lognormal":
		if f, err = netFloats(name, args, "mu", "sigma"); err != nil {
			return Network{}, err
		}
		m, err = netmodel.NewLogNormal(f[0], f[1])
	case "zones", "wan":
		name = "zones"
		if err = netArity(name, args, "k", "intra", "inter"); err != nil {
			return Network{}, err
		}
		k, kerr := strconv.Atoi(strings.TrimSpace(args[0]))
		if kerr != nil {
			return Network{}, fmt.Errorf("experiment: bad zones count %q: %v", args[0], kerr)
		}
		if f, err = netFloats(name, args[1:], "intra", "inter"); err != nil {
			return Network{}, err
		}
		m, err = netmodel.NewZones(k, f[0], f[1])
	case "lossy":
		if len(args) < 2 {
			return Network{}, fmt.Errorf("experiment: network lossy takes a probability and an inner spec (lossy:p:model[:params]), got %v", args)
		}
		if f, err = netFloats(name, args[:1], "probability"); err != nil {
			return Network{}, err
		}
		if f[0] < 0 || f[0] > 1 {
			return Network{}, fmt.Errorf("experiment: network lossy probability %g outside [0,1]", f[0])
		}
		inner, err := ParseNetwork(strings.Join(args[1:], ":"))
		if err != nil {
			return Network{}, err
		}
		return Network{model: inner.model, loss: append([]float64{f[0]}, inner.loss...)}, nil
	default:
		return Network{}, fmt.Errorf("experiment: unknown network %q (registered: %s)",
			spec, strings.Join(Networks(), ", "))
	}
	if err != nil {
		return Network{}, fmt.Errorf("experiment: %w", err)
	}
	return Network{model: m}, nil
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
