package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Applications and scenarios are the two open experiment dimensions: each is
// a name-keyed registry, so a new driver plugs in additively — registering it
// makes it reachable from ParseApplication / ParseScenario (and therefore
// from the CLI tools) without any change to the generic run pipeline. The
// paper's built-ins are registered by this package's init functions through
// the same public entry points, and scenarios/crashburst registers a
// scenario from outside the package. Strategy families, runtimes, network
// models and workloads are fixed sets, each resolved by one parser
// (ParseStrategySpec, ParseRuntime, ParseNetwork, ParseWorkload).

// registry is a concurrency-safe name → value map with alias support and
// deterministic listing order.
type registry[T any] struct {
	what string // "application" or "scenario", for error messages

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
