package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/core"
)

// StrategyKind names a token account strategy family: the three of §3.3
// plus the proactive baseline and the pure reactive reference. The set is
// fixed; every StrategySpec method switches over it.
type StrategyKind string

// The five strategy kinds.
const (
	KindProactive   StrategyKind = "proactive"
	KindSimple      StrategyKind = "simple"
	KindGeneralized StrategyKind = "generalized"
	KindRandomized  StrategyKind = "randomized"
	KindReactive    StrategyKind = "reactive"
)

// StrategySpec is a serializable description of a strategy, used by
// experiment configs, CLI flags and figure definitions. The Kind selects the
// family, which interprets the A and C parameters.
type StrategySpec struct {
	// Kind selects the strategy family.
	Kind StrategyKind
	// A is the spending parameter of the generalized and randomized
	// strategies, or the fanout of the pure reactive strategy.
	A int
	// C is the token capacity (ignored by proactive and reactive).
	C int
}

// StrategyKinds returns the names of the five strategy families in sorted
// order.
func StrategyKinds() []string {
	return []string{"generalized", "proactive", "randomized", "reactive", "simple"}
}

// Build constructs the core.Strategy the spec describes.
func (s StrategySpec) Build() (core.Strategy, error) {
	switch s.Kind {
	case KindProactive:
		return core.PurelyProactive{}, nil
	case KindSimple:
		return core.NewSimple(s.C)
	case KindGeneralized:
		return core.NewGeneralized(s.A, s.C)
	case KindRandomized:
		return core.NewRandomized(s.A, s.C)
	case KindReactive:
		return core.NewPureReactive(s.fanout(), true)
	}
	return nil, fmt.Errorf("experiment: unknown strategy kind %q (registered: %s)",
		s.Kind, strings.Join(StrategyKinds(), ", "))
}

// fanout is the pure reactive strategy's fanout k: A, where 0 means 1.
func (s StrategySpec) fanout() int {
	if s.A == 0 {
		return 1
	}
	return s.A
}

// Label returns a compact identifier such as "randomized(A=5,C=10)", used in
// figure legends.
func (s StrategySpec) Label() string {
	switch s.Kind {
	case KindProactive:
		return "proactive"
	case KindSimple:
		return fmt.Sprintf("simple(C=%d)", s.C)
	case KindReactive:
		return fmt.Sprintf("reactive(k=%d)", s.fanout())
	}
	return fmt.Sprintf("%s(A=%d,C=%d)", s.Kind, s.A, s.C)
}

// String renders the spec in the colon-separated form accepted by
// ParseStrategySpec, e.g. "randomized:5:10".
func (s StrategySpec) String() string {
	switch s.Kind {
	case KindProactive:
		return "proactive"
	case KindSimple:
		return fmt.Sprintf("simple:%d", s.C)
	case KindReactive:
		return fmt.Sprintf("reactive:%d", s.A)
	}
	return fmt.Sprintf("%s:%d:%d", s.Kind, s.A, s.C)
}

// ParseStrategySpec parses strings of the forms "proactive", "simple:C",
// "generalized:A:C", "randomized:A:C" and "reactive:k", as used by the CLI
// tools. The kind is case-insensitive; trailing parameters beyond what the
// family takes are rejected, and so is a negative fanout k (0 means 1).
func ParseStrategySpec(s string) (StrategySpec, error) {
	parts := strings.Split(strings.TrimSpace(s), ":")
	spec := StrategySpec{Kind: StrategyKind(strings.ToLower(parts[0]))}
	var params []string // in order; C is the capacity, A or k the other one
	switch spec.Kind {
	case KindProactive:
	case KindSimple:
		params = []string{"C"}
	case KindGeneralized, KindRandomized:
		params = []string{"A", "C"}
	case KindReactive:
		params = []string{"k"}
	default:
		return StrategySpec{}, fmt.Errorf("experiment: unknown strategy %q (registered: %s)",
			s, strings.Join(StrategyKinds(), ", "))
	}
	v, err := parseIntArgs(spec.Kind, parts[1:], params...)
	if err != nil {
		return StrategySpec{}, fmt.Errorf("experiment: strategy %q: %w", s, err)
	}
	for i, name := range params {
		if name == "C" {
			spec.C = v[i]
		} else {
			spec.A = v[i]
		}
	}
	if spec.Kind == KindReactive && spec.A < 0 {
		return StrategySpec{}, fmt.Errorf("experiment: strategy %q: fanout k = %d, need ≥ 0 (0 means 1)", s, spec.A)
	}
	if _, err := spec.Build(); err != nil {
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
// strategy family: every combination of A ∈ {1,2,5,10,15,20,40} and
// C−A ∈ {0,1,2,5,10,15,20,40,80} for the generalized and randomized
// families, the corresponding capacities for the simple family, the one
// proactive spec, and nil for the pure reactive reference (the paper has no
// sweep over it) and unknown kinds.
func ParameterGrid(kind StrategyKind) []StrategySpec {
	var specs []StrategySpec
	switch kind {
	case KindProactive:
		specs = []StrategySpec{Proactive()}
	case KindSimple:
		seen := map[int]bool{}
		for _, a := range gridAValues {
			for _, d := range gridCMinusA {
				if c := a + d; !seen[c] {
					seen[c] = true
					specs = append(specs, Simple(c))
				}
			}
		}
	case KindGeneralized, KindRandomized:
		for _, a := range gridAValues {
			for _, d := range gridCMinusA {
				specs = append(specs, StrategySpec{Kind: kind, A: a, C: a + d})
			}
		}
	}
	return specs
}

// gridAValues and gridCMinusA are the §4.2 exploration axes.
var (
	gridAValues = []int{1, 2, 5, 10, 15, 20, 40}
	gridCMinusA = []int{0, 1, 2, 5, 10, 15, 20, 40, 80}
)

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
