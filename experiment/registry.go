package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The experiment package keeps six name-keyed registries — applications,
// scenarios, strategy families, runtimes, network models and workloads — so
// that new experiment dimensions plug in additively: registering a driver
// makes it reachable from ParseApplication / ParseScenario /
// ParseStrategySpec / ParseRuntime / ParseNetwork / ParseWorkload (and
// therefore from the CLI tools) without any change to the generic run
// pipeline. The paper's built-ins along every dimension are registered by
// this package's init functions through the same public entry points.

// registry is a concurrency-safe name → value map with alias support and
// deterministic listing order.
type registry[T any] struct {
	what string // "application", "scenario", "strategy kind" — for error messages

	mu     sync.RWMutex
	byName map[string]T // canonical names and aliases
	names  []string     // canonical names only
}

func newRegistry[T any](what string) *registry[T] {
	return &registry[T]{what: what, byName: make(map[string]T)}
}

func (r *registry[T]) register(name string, v T, aliases ...string) error {
	if name == "" {
		return fmt.Errorf("experiment: cannot register %s with an empty name", r.what)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := append([]string{name}, aliases...)
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if k == "" {
			return fmt.Errorf("experiment: cannot register %s %q with an empty alias", r.what, name)
		}
		if _, dup := r.byName[k]; dup || seen[k] {
			return fmt.Errorf("experiment: %s %q already registered", r.what, k)
		}
		seen[k] = true
	}
	for _, k := range keys {
		r.byName[k] = v
	}
	r.names = append(r.names, name)
	sort.Strings(r.names)
	return nil
}

func (r *registry[T]) lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byName[name]
	return v, ok
}

// list returns the canonical (alias-free) names in sorted order.
func (r *registry[T]) list() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// mustRegister registers v under name and aliases in r, panicking if any of
// the names is already taken.
func mustRegister[T any](r *registry[T], name string, v T, aliases []string) {
	if err := r.register(name, v, aliases...); err != nil {
		panic(err)
	}
}

var (
	applications = newRegistry[AppDriver]("application")
	scenarios    = newRegistry[ScenarioFactory]("scenario")
	strategies   = newRegistry[StrategyDriver]("strategy kind")
	runtimes     = newRegistry[RuntimeFactory]("runtime")
	networks     = newRegistry[NetworkFactory]("network")
	workloads    = newRegistry[WorkloadFactory]("workload")
)

// MustRegisterApplication adds an application driver to the registry under
// driver.Name() and any aliases. It panics if any of the names is already
// taken: it is meant for init-time registration of package-level drivers,
// where a clash is a programming error.
func MustRegisterApplication(driver AppDriver, aliases ...string) {
	mustRegister(applications, driver.Name(), driver, aliases)
}

// ParseApplication resolves an application spec string of the form
// "name[:param[:param...]]": the name (or alias) selects the registered
// driver, and any colon-separated parameters are handed to the driver's
// AppConfigurer capability. Parameter-free applications reject parameters.
func ParseApplication(spec string) (AppDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	d, ok := applications.lookup(parts[0])
	if !ok {
		return nil, fmt.Errorf("experiment: unknown application %q (registered: %s)",
			spec, strings.Join(Applications(), ", "))
	}
	if len(parts) == 1 {
		return d, nil
	}
	c, ok := d.(AppConfigurer)
	if !ok {
		return nil, fmt.Errorf("experiment: application %q takes no parameters, got %q",
			parts[0], strings.Join(parts[1:], ":"))
	}
	return c.WithParams(parts[1:])
}

// Applications returns the canonical names of all registered applications in
// sorted order.
func Applications() []string { return applications.list() }

// ScenarioFactory builds a ScenarioDriver from the colon-separated
// parameters following the scenario name in a spec string such as
// "crash-burst:0.3". Parameter-free scenarios must reject a non-empty args
// slice.
type ScenarioFactory func(args []string) (ScenarioDriver, error)

// MustRegisterScenario adds a scenario factory to the registry. The factory
// is invoked by ParseScenario with the parameters following the name, so a
// single registered name can serve a parameterized family of scenarios. It
// panics if any of the names is already taken.
func MustRegisterScenario(name string, factory ScenarioFactory, aliases ...string) {
	mustRegister(scenarios, name, factory, aliases)
}

// registerScenarioDriver registers a fixed, parameter-free scenario driver
// under driver.Name(), with a factory that rejects parameters. It fails if
// any of the names is already taken.
func registerScenarioDriver(driver ScenarioDriver, aliases ...string) error {
	name := driver.Name()
	return scenarios.register(name, func(args []string) (ScenarioDriver, error) {
		if len(args) > 0 {
			return nil, fmt.Errorf("experiment: scenario %q takes no parameters, got %q",
				name, strings.Join(args, ":"))
		}
		return driver, nil
	}, aliases...)
}

// ParseScenario resolves a scenario spec string of the form
// "name[:param[:param...]]" against the registry: the name (or alias)
// selects the factory, which receives the remaining parts.
func ParseScenario(spec string) (ScenarioDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if f, ok := scenarios.lookup(parts[0]); ok {
		return f(parts[1:])
	}
	return nil, fmt.Errorf("experiment: unknown scenario %q (registered: %s)",
		spec, strings.Join(Scenarios(), ", "))
}

// Scenarios returns the canonical names of all registered scenarios in
// sorted order.
func Scenarios() []string { return scenarios.list() }

// MustRegisterStrategy adds a strategy family driver to the registry under
// driver.Kind() and any aliases. It panics if any of the names is already
// taken.
func MustRegisterStrategy(driver StrategyDriver, aliases ...string) {
	mustRegister(strategies, string(driver.Kind()), driver, aliases)
}

// StrategyKinds returns the canonical names of all registered strategy
// families in sorted order.
func StrategyKinds() []string { return strategies.list() }

// RuntimeFactory builds a RuntimeDriver from the colon-separated parameters
// following the runtime name in a spec string such as "live:0.001".
// Parameter-free runtimes must reject a non-empty args slice.
type RuntimeFactory func(args []string) (RuntimeDriver, error)

// MustRegisterRuntime adds a runtime factory to the registry. The factory is
// invoked by ParseRuntime with the parameters following the name, so a
// single registered name can serve a parameterized family of runtimes. It
// panics if any of the names is already taken.
func MustRegisterRuntime(name string, factory RuntimeFactory, aliases ...string) {
	mustRegister(runtimes, name, factory, aliases)
}

// ParseRuntime resolves a runtime spec string of the form
// "name[:param[:param...]]" against the registry: the name (or alias)
// selects the factory, which receives the remaining parts.
func ParseRuntime(spec string) (RuntimeDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if f, ok := runtimes.lookup(parts[0]); ok {
		return f(parts[1:])
	}
	return nil, fmt.Errorf("experiment: unknown runtime %q (registered: %s)",
		spec, strings.Join(Runtimes(), ", "))
}

// Runtimes returns the canonical names of all registered runtimes in sorted
// order.
func Runtimes() []string { return runtimes.list() }

// NetworkFactory builds a NetworkDriver from the colon-separated parameters
// following the network name in a spec string such as "exponential:1.728".
// Parameter-free networks must reject a non-empty args slice.
type NetworkFactory func(args []string) (NetworkDriver, error)

// MustRegisterNetwork adds a network factory to the registry. The factory is
// invoked by ParseNetwork with the parameters following the name, so a
// single registered name can serve a parameterized family of network models.
// It panics if any of the names is already taken.
func MustRegisterNetwork(name string, factory NetworkFactory, aliases ...string) {
	mustRegister(networks, name, factory, aliases)
}

// ParseNetwork resolves a network spec string of the form
// "name[:param[:param...]]" against the registry: the name (or alias)
// selects the factory, which receives the remaining parts.
func ParseNetwork(spec string) (NetworkDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if f, ok := networks.lookup(parts[0]); ok {
		return f(parts[1:])
	}
	return nil, fmt.Errorf("experiment: unknown network %q (registered: %s)",
		spec, strings.Join(Networks(), ", "))
}

// Networks returns the canonical names of all registered network models in
// sorted order.
func Networks() []string { return networks.list() }

// WorkloadFactory builds a WorkloadDriver from the colon-separated parameters
// following the workload name in a spec string such as "poisson:0.5" or
// "flashcrowd:3600:20:600:poisson:0.5". Parameter-free workloads must reject
// a non-empty args slice.
type WorkloadFactory func(args []string) (WorkloadDriver, error)

// MustRegisterWorkload adds a workload factory to the registry. The factory
// is invoked by ParseWorkload with the parameters following the name, so a
// single registered name can serve a parameterized family of arrival
// processes. It panics if any of the names is already taken.
func MustRegisterWorkload(name string, factory WorkloadFactory, aliases ...string) {
	mustRegister(workloads, name, factory, aliases)
}

// ParseWorkload resolves a workload spec string of the form
// "name[:param[:param...]]" against the registry: the name (or alias)
// selects the factory, which receives the remaining parts.
func ParseWorkload(spec string) (WorkloadDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if f, ok := workloads.lookup(parts[0]); ok {
		return f(parts[1:])
	}
	return nil, fmt.Errorf("experiment: unknown workload %q (registered: %s)",
		spec, strings.Join(Workloads(), ", "))
}

// Workloads returns the canonical names of all registered workloads in sorted
// order.
func Workloads() []string { return workloads.list() }

func strategyDriver(kind StrategyKind) (StrategyDriver, error) {
	if d, ok := strategies.lookup(string(kind)); ok {
		return d, nil
	}
	return nil, fmt.Errorf("experiment: unknown strategy kind %q (registered: %s)",
		kind, strings.Join(StrategyKinds(), ", "))
}
