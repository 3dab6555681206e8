package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/core"
)

// StrategyKind names a registered token account strategy family (§3.3 plus
// the proactive baseline and the pure reactive reference).
type StrategyKind string

// The built-in strategy kinds.
const (
	KindProactive   StrategyKind = "proactive"
	KindSimple      StrategyKind = "simple"
	KindGeneralized StrategyKind = "generalized"
	KindRandomized  StrategyKind = "randomized"
	KindReactive    StrategyKind = "reactive"
)

// StrategySpec is a serializable description of a strategy, used by
// experiment configs, CLI flags and figure definitions. The Kind selects a
// registered StrategyDriver, which interprets the A and C parameters.
type StrategySpec struct {
	// Kind selects the strategy family.
	Kind StrategyKind
	// A is the spending parameter of the generalized and randomized
	// strategies, or the fanout of the pure reactive strategy.
	A int
	// C is the token capacity (ignored by proactive and reactive).
	C int
}

// StrategyDriver describes one strategy family: how to parse its parameters
// from the colon-separated CLI form, how to render a spec back into that
// form and into a human-readable label, how to build the core.Strategy, and
// the family's §4.2 parameter exploration grid. The five paper kinds are
// self-registering built-ins; external families plug in through
// MustRegisterStrategy.
type StrategyDriver interface {
	// Kind is the canonical registry name of the family.
	Kind() StrategyKind
	// Parse builds a spec from the parameters following the kind in a spec
	// string ("randomized:5:10" yields args ["5", "10"]). Implementations
	// must reject unconsumed parameters.
	Parse(args []string) (StrategySpec, error)
	// Format renders the spec back into the colon form accepted by Parse.
	Format(spec StrategySpec) string
	// Label returns a compact human-readable identifier such as
	// "randomized(A=5,C=10)", used in figure legends.
	Label(spec StrategySpec) string
	// Build constructs the core.Strategy the spec describes.
	Build(spec StrategySpec) (core.Strategy, error)
	// Grid returns the §4.2 parameter exploration of the family, or nil if a
	// sweep over the family is not meaningful.
	Grid() []StrategySpec
}

// Build constructs the core.Strategy the spec describes.
func (s StrategySpec) Build() (core.Strategy, error) {
	d, err := strategyDriver(s.Kind)
	if err != nil {
		return nil, err
	}
	return d.Build(s)
}

// Label returns a compact identifier such as "randomized(A=5,C=10)".
func (s StrategySpec) Label() string {
	d, err := strategyDriver(s.Kind)
	if err != nil {
		return fmt.Sprintf("%s(A=%d,C=%d)", s.Kind, s.A, s.C)
	}
	return d.Label(s)
}

// String renders the spec in the colon-separated form accepted by
// ParseStrategySpec, e.g. "randomized:5:10".
func (s StrategySpec) String() string {
	d, err := strategyDriver(s.Kind)
	if err != nil {
		return fmt.Sprintf("%s:%d:%d", s.Kind, s.A, s.C)
	}
	return d.Format(s)
}

// ParseStrategySpec parses strings of the forms "proactive", "simple:C",
// "generalized:A:C", "randomized:A:C" and "reactive:k" (plus any registered
// external families), as used by the CLI tools. Trailing parameters beyond
// what the family consumes are rejected.
func ParseStrategySpec(s string) (StrategySpec, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	// Exact registry names win (external kinds may be case-sensitive); the
	// lowercase fallback keeps the historical case-insensitive CLI behaviour
	// for the built-ins.
	d, ok := strategies.lookup(parts[0])
	if !ok {
		d, ok = strategies.lookup(strings.ToLower(parts[0]))
	}
	if !ok {
		return StrategySpec{}, fmt.Errorf("experiment: unknown strategy %q (registered: %s)",
			s, strings.Join(StrategyKinds(), ", "))
	}
	spec, err := d.Parse(parts[1:])
	if err != nil {
		return StrategySpec{}, fmt.Errorf("experiment: strategy %q: %w", s, err)
	}
	return spec, nil
}

// Proactive returns the purely proactive baseline spec: one message per node
// per Δ and no reactive spending at all (the paper's unit-budget reference).
func Proactive() StrategySpec { return StrategySpec{Kind: KindProactive} }

// Simple returns a simple token account spec.
func Simple(c int) StrategySpec { return StrategySpec{Kind: KindSimple, C: c} }

// Generalized returns a generalized token account spec.
func Generalized(a, c int) StrategySpec { return StrategySpec{Kind: KindGeneralized, A: a, C: c} }

// Randomized returns a randomized token account spec.
func Randomized(a, c int) StrategySpec { return StrategySpec{Kind: KindRandomized, A: a, C: c} }

// ParameterGrid returns the full parameter exploration of §4.2 for the given
// registered strategy family: every combination of A ∈ {1,2,5,10,15,20,40}
// and C−A ∈ {0,1,2,5,10,15,20,40,80} for the generalized and randomized
// families, the corresponding capacities for the simple family, and nil for
// families without a meaningful sweep (or unregistered kinds).
func ParameterGrid(kind StrategyKind) []StrategySpec {
	d, err := strategyDriver(kind)
	if err != nil {
		return nil
	}
	return d.Grid()
}

// gridAValues and gridCMinusA are the §4.2 exploration axes.
var (
	gridAValues = []int{1, 2, 5, 10, 15, 20, 40}
	gridCMinusA = []int{0, 1, 2, 5, 10, 15, 20, 40, 80}
)

func init() {
	MustRegisterStrategy(proactiveDriver{})
	MustRegisterStrategy(simpleDriver{})
	MustRegisterStrategy(acDriver{KindGeneralized, func(a, c int) (core.Strategy, error) {
		return core.NewGeneralized(a, c)
	}})
	MustRegisterStrategy(acDriver{KindRandomized, func(a, c int) (core.Strategy, error) {
		return core.NewRandomized(a, c)
	}})
	MustRegisterStrategy(reactiveDriver{})
}

// parseIntArgs converts exactly len(names) colon-separated parameters into
// integers, rejecting both missing and unconsumed trailing parameters.
func parseIntArgs(kind StrategyKind, args []string, names ...string) ([]int, error) {
	if len(args) < len(names) {
		return nil, fmt.Errorf("missing parameter %s (want %s)", names[len(args)], usage(kind, names))
	}
	if len(args) > len(names) {
		return nil, fmt.Errorf("unexpected trailing parameter(s) %q (want %s)",
			strings.Join(args[len(names):], ":"), usage(kind, names))
	}
	out := make([]int, len(args))
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("bad parameter %q", a)
		}
		out[i] = v
	}
	return out, nil
}

func usage(kind StrategyKind, names []string) string {
	if len(names) == 0 {
		return string(kind)
	}
	return string(kind) + ":" + strings.Join(names, ":")
}

type proactiveDriver struct{}

func (proactiveDriver) Kind() StrategyKind { return KindProactive }

func (proactiveDriver) Parse(args []string) (StrategySpec, error) {
	if _, err := parseIntArgs(KindProactive, args); err != nil {
		return StrategySpec{}, err
	}
	return Proactive(), nil
}

func (proactiveDriver) Format(StrategySpec) string { return string(KindProactive) }
func (proactiveDriver) Label(StrategySpec) string  { return "proactive" }

func (proactiveDriver) Build(StrategySpec) (core.Strategy, error) {
	return core.PurelyProactive{}, nil
}

func (proactiveDriver) Grid() []StrategySpec { return []StrategySpec{Proactive()} }

type simpleDriver struct{}

func (simpleDriver) Kind() StrategyKind { return KindSimple }

func (simpleDriver) Parse(args []string) (StrategySpec, error) {
	v, err := parseIntArgs(KindSimple, args, "C")
	if err != nil {
		return StrategySpec{}, err
	}
	return Simple(v[0]), nil
}

func (simpleDriver) Format(s StrategySpec) string { return fmt.Sprintf("simple:%d", s.C) }
func (simpleDriver) Label(s StrategySpec) string  { return fmt.Sprintf("simple(C=%d)", s.C) }

func (simpleDriver) Build(s StrategySpec) (core.Strategy, error) {
	return core.NewSimple(s.C)
}

func (simpleDriver) Grid() []StrategySpec {
	seen := map[int]bool{}
	var specs []StrategySpec
	for _, a := range gridAValues {
		for _, d := range gridCMinusA {
			c := a + d
			if !seen[c] {
				seen[c] = true
				specs = append(specs, Simple(c))
			}
		}
	}
	return specs
}

// acDriver covers the shared shape of the generalized and randomized
// families: two parameters A and C and the full §4.2 exploration grid.
type acDriver struct {
	kind  StrategyKind
	build func(a, c int) (core.Strategy, error)
}

func (d acDriver) Kind() StrategyKind { return d.kind }

func (d acDriver) Parse(args []string) (StrategySpec, error) {
	v, err := parseIntArgs(d.kind, args, "A", "C")
	if err != nil {
		return StrategySpec{}, err
	}
	return StrategySpec{Kind: d.kind, A: v[0], C: v[1]}, nil
}

func (d acDriver) Format(s StrategySpec) string {
	return fmt.Sprintf("%s:%d:%d", d.kind, s.A, s.C)
}

func (d acDriver) Label(s StrategySpec) string {
	return fmt.Sprintf("%s(A=%d,C=%d)", d.kind, s.A, s.C)
}

func (d acDriver) Build(s StrategySpec) (core.Strategy, error) {
	return d.build(s.A, s.C)
}

func (d acDriver) Grid() []StrategySpec {
	var specs []StrategySpec
	for _, a := range gridAValues {
		for _, diff := range gridCMinusA {
			specs = append(specs, StrategySpec{Kind: d.kind, A: a, C: a + diff})
		}
	}
	return specs
}

type reactiveDriver struct{}

func (reactiveDriver) Kind() StrategyKind { return KindReactive }

func (reactiveDriver) Parse(args []string) (StrategySpec, error) {
	v, err := parseIntArgs(KindReactive, args, "k")
	if err != nil {
		return StrategySpec{}, err
	}
	return StrategySpec{Kind: KindReactive, A: v[0]}, nil
}

func (reactiveDriver) Format(s StrategySpec) string { return fmt.Sprintf("reactive:%d", s.A) }

func (reactiveDriver) Label(s StrategySpec) string {
	return fmt.Sprintf("reactive(k=%d)", max(1, s.A))
}

func (reactiveDriver) Build(s StrategySpec) (core.Strategy, error) {
	fanout := s.A
	if fanout == 0 {
		fanout = 1
	}
	return core.NewPureReactive(fanout, true)
}

// Grid returns nil: the pure reactive reference has no (A, C) exploration in
// the paper.
func (reactiveDriver) Grid() []StrategySpec { return nil }
