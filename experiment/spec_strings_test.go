package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// specOutcome is what one spec string parses to: the driver's Name, its
// String form and its label (StrategySpec.Label, or DriverLabel for the
// driver dimensions), and whether it is the dimension's default driver (only
// networks, runtimes and workloads have one) — or the parse error.
type specOutcome struct {
	name, str, label string
	dflt             bool
	err              string
}

func accepted(name, str, label string, dflt bool) specOutcome {
	return specOutcome{name: name, str: str, label: label, dflt: dflt}
}

func rejected(err string) specOutcome { return specOutcome{err: err} }

// describeSpec parses spec in the named dimension. A strategy's name is its
// kind.
func describeSpec(dim, spec string) specOutcome {
	var (
		d    interface{ Name() string }
		dflt bool
		err  error
	)
	switch dim {
	case "strategy":
		s, err := ParseStrategySpec(spec)
		if err != nil {
			return rejected(err.Error())
		}
		return accepted(string(s.Kind), s.String(), s.Label(), false)
	case "network":
		var n Network
		n, err = ParseNetwork(spec)
		d, dflt = n, n.IsDefault()
	case "runtime":
		var r RuntimeDriver
		r, err = ParseRuntime(spec)
		d, dflt = r, IsDefaultRuntime(r)
	case "workload":
		var w Workload
		w, err = ParseWorkload(spec)
		d, dflt = w, w.IsDefault()
	case "application":
		d, err = ParseApplication(spec)
	case "scenario":
		d, err = ParseScenario(spec)
	default:
		panic("unknown dimension " + dim)
	}
	if err != nil {
		return rejected(err.Error())
	}
	return accepted(d.Name(), fmt.Sprint(d), DriverLabel(d), dflt)
}

// specStringCases holds every canonical name and alias of the six
// dimensions, plus malformed specs: trailing
// parameters, empty and missing parameters, bad numbers, letter case and
// unknown names. An accepted spec pins its driver's Name, String and label
// and whether it is the default; a rejected one pins its error (a prefix
// where the rest comes from the operating system).
var specStringCases = []struct {
	dim, spec string
	want      specOutcome
}{
	{"strategy", "proactive", accepted("proactive", "proactive", "proactive", false)},
	{"strategy", "simple:10", accepted("simple", "simple:10", "simple(C=10)", false)},
	{"strategy", "generalized:5:10", accepted("generalized", "generalized:5:10", "generalized(A=5,C=10)", false)},
	{"strategy", "randomized:5:10", accepted("randomized", "randomized:5:10", "randomized(A=5,C=10)", false)},
	{"strategy", "reactive:3", accepted("reactive", "reactive:3", "reactive(k=3)", false)},
	{"strategy", "reactive:0", accepted("reactive", "reactive:0", "reactive(k=1)", false)},
	{"strategy", "reactive:1", accepted("reactive", "reactive:1", "reactive(k=1)", false)},
	{"strategy", "PROACTIVE", accepted("proactive", "proactive", "proactive", false)},
	{"strategy", "Simple:7", accepted("simple", "simple:7", "simple(C=7)", false)},
	{"strategy", "RANDOMIZED:1:5", accepted("randomized", "randomized:1:5", "randomized(A=1,C=5)", false)},
	{"strategy", "Generalized:2:9", accepted("generalized", "generalized:2:9", "generalized(A=2,C=9)", false)},
	{"strategy", "REACTIVE:2", accepted("reactive", "reactive:2", "reactive(k=2)", false)},
	{"strategy", " simple:4 ", accepted("simple", "simple:4", "simple(C=4)", false)},
	{"strategy", "simple:-3", rejected("experiment: strategy \"simple:-3\": NewSimple(C=-3): core: capacity C must be non-negative")},
	{"strategy", "generalized:0:5", rejected("experiment: strategy \"generalized:0:5\": NewGeneralized(A=0,C=5): core: parameter A must be a positive integer")},
	{"strategy", "generalized:-2:5", rejected("experiment: strategy \"generalized:-2:5\": NewGeneralized(A=-2,C=5): core: parameter A must be a positive integer")},
	{"strategy", "randomized:0:5", rejected("experiment: strategy \"randomized:0:5\": NewRandomized(A=0,C=5): core: parameter A must be a positive integer")},
	{"strategy", "randomized:5:3", rejected("experiment: strategy \"randomized:5:3\": NewRandomized(A=5,C=3): core: capacity C must be at least A")},
	{"strategy", "proactive:1", rejected("experiment: strategy \"proactive:1\": unexpected trailing parameter(s) \"1\" (want proactive)")},
	{"strategy", "simple:5:9", rejected("experiment: strategy \"simple:5:9\": unexpected trailing parameter(s) \"9\" (want simple:C)")},
	{"strategy", "generalized:1:2:3", rejected("experiment: strategy \"generalized:1:2:3\": unexpected trailing parameter(s) \"3\" (want generalized:A:C)")},
	{"strategy", "randomized:5:10:15", rejected("experiment: strategy \"randomized:5:10:15\": unexpected trailing parameter(s) \"15\" (want randomized:A:C)")},
	{"strategy", "reactive:-1", rejected("experiment: strategy \"reactive:-1\": fanout k = -1, need ≥ 0 (0 means 1)")},
	{"strategy", "REACTIVE:-7", rejected("experiment: strategy \"REACTIVE:-7\": fanout k = -7, need ≥ 0 (0 means 1)")},
	{"strategy", "reactive:2:3", rejected("experiment: strategy \"reactive:2:3\": unexpected trailing parameter(s) \"3\" (want reactive:k)")},
	{"strategy", "simple", rejected("experiment: strategy \"simple\": missing parameter C (want simple:C)")},
	{"strategy", "generalized:5", rejected("experiment: strategy \"generalized:5\": missing parameter C (want generalized:A:C)")},
	{"strategy", "randomized", rejected("experiment: strategy \"randomized\": missing parameter A (want randomized:A:C)")},
	{"strategy", "reactive", rejected("experiment: strategy \"reactive\": missing parameter k (want reactive:k)")},
	{"strategy", "simple:", rejected("experiment: strategy \"simple:\": bad parameter \"\"")},
	{"strategy", "simple:x", rejected("experiment: strategy \"simple:x\": bad parameter \"x\"")},
	{"strategy", "simple: 4", rejected("experiment: strategy \"simple: 4\": bad parameter \" 4\"")},
	{"strategy", "generalized:a:b", rejected("experiment: strategy \"generalized:a:b\": bad parameter \"a\"")},
	{"strategy", "randomized:5:1.5", rejected("experiment: strategy \"randomized:5:1.5\": bad parameter \"1.5\"")},
	{"strategy", "", rejected("experiment: unknown strategy \"\" (registered: generalized, proactive, randomized, reactive, simple)")},
	{"strategy", "nope", rejected("experiment: unknown strategy \"nope\" (registered: generalized, proactive, randomized, reactive, simple)")},
	{"strategy", "no-such-kind:1", rejected("experiment: unknown strategy \"no-such-kind:1\" (registered: generalized, proactive, randomized, reactive, simple)")},
	{"strategy", "simple-10", rejected("experiment: unknown strategy \"simple-10\" (registered: generalized, proactive, randomized, reactive, simple)")},

	{"network", "constant", accepted("constant", "constant", "constant", true)},
	{"network", "fixed", accepted("constant", "constant", "constant", true)},
	{"network", "constant:2.5", accepted("constant", "constant:2.5", "constant:2.5", false)},
	{"network", "fixed:2.5", accepted("constant", "constant:2.5", "constant:2.5", false)},
	{"network", "uniform:0.5:3", accepted("uniform", "uniform:0.5:3", "uniform:0.5:3", false)},
	{"network", "jitter:0.5:3", accepted("uniform", "uniform:0.5:3", "uniform:0.5:3", false)},
	{"network", "exponential:1.728", accepted("exponential", "exponential:1.728", "exponential:1.728", false)},
	{"network", "exp:2", accepted("exponential", "exponential:2", "exponential:2", false)},
	{"network", "lognormal:0.3:0.8", accepted("lognormal", "lognormal:0.3:0.8", "lognormal:0.3:0.8", false)},
	{"network", "zones:4:0.5:3", accepted("zones", "zones:4:0.5:3", "zones:4:0.5:3", false)},
	{"network", "wan:2:1:5", accepted("zones", "zones:2:1:5", "zones:2:1:5", false)},
	{"network", "lossy:0.1:uniform:0.5:3", accepted("lossy", "lossy:0.1:uniform:0.5:3", "lossy:0.1:uniform:0.5:3", false)},
	{"network", "lossy:0.01:constant", accepted("lossy", "lossy:0.01:constant", "lossy:0.01:constant", false)},
	{"network", "lossy:0.2:lossy:0.1:exp:2", accepted("lossy", "lossy:0.2:lossy:0.1:exponential:2", "lossy:0.2:lossy:0.1:exponential:2", false)},
	{"network", "lossy:0:fixed:3", accepted("lossy", "lossy:0:constant:3", "lossy:0:constant:3", false)},
	{"network", " zones:4:0.5:3 ", accepted("zones", "zones:4:0.5:3", "zones:4:0.5:3", false)},
	{"network", "constant:1:2", rejected("experiment: unexpected trailing parameter(s) [2] (want constant[:delay])")},
	{"network", "constant:x", rejected("experiment: bad network constant delay \"x\" (want a finite number)")},
	{"network", "constant:-1", rejected("experiment: netmodel: constant delay = -1, need ≥ 0 and finite")},
	{"network", "uniform:1", rejected("experiment: network uniform takes exactly two parameters (uniform:lo:hi), got [1]")},
	{"network", "uniform:1:2:3", rejected("experiment: network uniform takes exactly two parameters (uniform:lo:hi), got [1 2 3]")},
	{"network", "uniform:3:1", rejected("experiment: netmodel: uniform bounds inverted: lo = 3 > hi = 1")},
	{"network", "uniform:a:1", rejected("experiment: bad network uniform lo \"a\" (want a finite number)")},
	{"network", "exponential", rejected("experiment: network exponential takes exactly one parameter (exponential:mean), got []")},
	{"network", "exponential:0", rejected("experiment: netmodel: exponential mean must be > 0")},
	{"network", "exponential:NaN", rejected("experiment: bad network exponential mean \"NaN\" (want a finite number)")},
	{"network", "lognormal:0", rejected("experiment: network lognormal takes exactly two parameters (lognormal:mu:sigma), got [0]")},
	{"network", "lognormal:710:0", rejected("experiment: netmodel: lognormal mu = 710, sigma = 0 can overflow to an infinite delay (need exp(mu+8.58·sigma) finite)")},
	{"network", "zones:2:1", rejected("experiment: network zones takes exactly three parameters (zones:k:intra:inter), got [2 1]")},
	{"network", "zones:x:0.5:3", rejected("experiment: bad zones count \"x\": strconv.Atoi: parsing \"x\": invalid syntax")},
	{"network", "zones:0:1:2", rejected("experiment: netmodel: zones count = 0, need ≥ 1")},
	{"network", "zones:4:a:3", rejected("experiment: bad network zones intra \"a\" (want a finite number)")},
	{"network", "lossy", rejected("experiment: network lossy takes a probability and an inner spec (lossy:p:model[:params]), got []")},
	{"network", "lossy:0.5", rejected("experiment: network lossy takes a probability and an inner spec (lossy:p:model[:params]), got [0.5]")},
	{"network", "lossy:2:constant", rejected("experiment: network lossy probability 2 outside [0,1]")},
	{"network", "lossy:x:constant", rejected("experiment: bad network lossy probability \"x\" (want a finite number)")},
	{"network", "lossy:0.5:bogus", rejected("experiment: unknown network \"bogus\" (registered: constant, exponential, lognormal, lossy, uniform, zones)")},
	{"network", "", rejected("experiment: unknown network \"\" (registered: constant, exponential, lognormal, lossy, uniform, zones)")},
	{"network", "bogus", rejected("experiment: unknown network \"bogus\" (registered: constant, exponential, lognormal, lossy, uniform, zones)")},
	{"network", "Constant", rejected("experiment: unknown network \"Constant\" (registered: constant, exponential, lognormal, lossy, uniform, zones)")},
	{"network", "exp", rejected("experiment: network exponential takes exactly one parameter (exponential:mean), got []")},

	{"runtime", "sim", accepted("sim", "sim", "sim", true)},
	{"runtime", "simnet", accepted("sim", "sim", "sim", true)},
	{"runtime", "virtual", accepted("sim", "sim", "sim", true)},
	{"runtime", "sim:slab", accepted("sim", "sim", "sim", true)},
	{"runtime", "sim:SLAB", accepted("sim", "sim", "sim", true)},
	{"runtime", "sim:", accepted("sim", "sim", "sim", true)},
	{"runtime", "sim:shards=1", accepted("sim", "sim", "sim", true)},
	{"runtime", "sim:shards=2", accepted("sim", "sim(shards=2)", "sim(shards=2)", false)},
	{"runtime", "virtual:shards=4", accepted("sim", "sim(shards=4)", "sim(shards=4)", false)},
	{"runtime", "sim:shards=4:slab", accepted("sim", "sim(shards=4)", "sim(shards=4)", false)},
	{"runtime", "sim:slab:shards=2", accepted("sim", "sim(shards=2)", "sim(shards=2)", false)},
	{"runtime", "live", accepted("live", "live", "live", false)},
	{"runtime", "real", accepted("live", "live", "live", false)},
	{"runtime", "wall", accepted("live", "live", "live", false)},
	{"runtime", "live:0.001", accepted("live", "live(x0.001)", "live(x0.001)", false)},
	{"runtime", "wall:0.5", accepted("live", "live(x0.5)", "live(x0.5)", false)},
	{"runtime", "sim:shards=0", rejected("experiment: bad shard count \"0\" (want a positive integer)")},
	{"runtime", "sim:shards=x", rejected("experiment: bad shard count \"x\" (want a positive integer)")},
	{"runtime", "sim:shards=-1", rejected("experiment: bad shard count \"-1\" (want a positive integer)")},
	{"runtime", "sim:shards=2:shards=3", rejected("experiment: duplicate shards parameter \"shards=3\"")},
	{"runtime", "sim:calendar", rejected("experiment: unexpected parameter \"calendar\" (want sim[:shards=N])")},
	{"runtime", "sim:slab:slab", rejected("experiment: unexpected parameter \"slab\" (want sim[:shards=N])")},
	{"runtime", "sim:heap", rejected("experiment: unexpected parameter \"heap\" (want sim[:shards=N])")},
	{"runtime", "live:0", rejected("experiment: bad live timescale \"0\" (want a positive, finite number of wall-seconds per run-second)")},
	{"runtime", "live:x", rejected("experiment: bad live timescale \"x\" (want a positive, finite number of wall-seconds per run-second)")},
	{"runtime", "live:-1", rejected("experiment: bad live timescale \"-1\" (want a positive, finite number of wall-seconds per run-second)")},
	{"runtime", "live:inf", rejected("experiment: bad live timescale \"inf\" (want a positive, finite number of wall-seconds per run-second)")},
	{"runtime", "live:NaN", rejected("experiment: bad live timescale \"NaN\" (want a positive, finite number of wall-seconds per run-second)")},
	{"runtime", "live:1:2", rejected("experiment: unexpected trailing parameter(s) [2] (want live[:timescale])")},
	{"runtime", "live-tcp", rejected("experiment: unknown runtime \"live-tcp\" (registered: live, sim)")},
	{"runtime", "", rejected("experiment: unknown runtime \"\" (registered: live, sim)")},
	{"runtime", "nope", rejected("experiment: unknown runtime \"nope\" (registered: live, sim)")},
	{"runtime", "Sim", rejected("experiment: unknown runtime \"Sim\" (registered: live, sim)")},
	{"runtime", "live-udp", rejected("experiment: unknown runtime \"live-udp\" (registered: live, sim)")},

	{"workload", "interval", accepted("interval", "interval", "interval", true)},
	{"workload", "drip", accepted("interval", "interval", "interval", true)},
	{"workload", "interval:30", accepted("interval", "interval:30", "interval:30", false)},
	{"workload", "drip:25", accepted("interval", "interval:25", "interval:25", false)},
	{"workload", "poisson:0.5", accepted("poisson", "poisson:0.5", "poisson:0.5", false)},
	{"workload", "pareto-onoff:2:30:90:1.5", accepted("pareto-onoff", "pareto-onoff:2:30:90:1.5", "pareto-onoff:2:30:90:1.5", false)},
	{"workload", "onoff:2:30:90:1.5", accepted("pareto-onoff", "pareto-onoff:2:30:90:1.5", "pareto-onoff:2:30:90:1.5", false)},
	{"workload", "selfsimilar:1:60:120:1.2", accepted("pareto-onoff", "pareto-onoff:1:60:120:1.2", "pareto-onoff:1:60:120:1.2", false)},
	{"workload", "diurnal:3600:0.8:poisson:0.5", accepted("diurnal", "diurnal:3600:0.8:poisson:0.5", "diurnal:3600:0.8:poisson:0.5", false)},
	{"workload", "flashcrowd:600:10:120:poisson:1", accepted("flashcrowd", "flashcrowd:600:10:120:poisson:1", "flashcrowd:600:10:120:poisson:1", false)},
	{"workload", "flash:600:10:120:interval:30", accepted("flashcrowd", "flashcrowd:600:10:120:interval:30", "flashcrowd:600:10:120:interval:30", false)},
	{"workload", " poisson:0.5 ", accepted("poisson", "poisson:0.5", "poisson:0.5", false)},
	{"workload", "interval:", rejected("experiment: workload: interval spec needs 1 parameter(s), got \"\"")},
	{"workload", "drip:", rejected("experiment: workload: interval spec needs 1 parameter(s), got \"\"")},
	{"workload", "replay", rejected("experiment: workload: replay spec needs a file path: replay:<path>")},
	{"workload", "replay:", rejected("experiment: workload: replay spec needs a file path: replay:<path>")},
	{"workload", "replay:/nonexistent/stream.csv", rejected("experiment: workload: replay: open /nonexistent/stream.csv")},
	{"workload", "poisson", rejected("experiment: workload: poisson spec needs 1 parameter(s), got \"\"")},
	{"workload", "poisson:", rejected("experiment: workload: poisson spec needs 1 parameter(s), got \"\"")},
	{"workload", "poisson:x", rejected("experiment: workload: poisson spec parameter 1: bad number \"x\"")},
	{"workload", "poisson:0", rejected("experiment: workload: poisson rate = 0, need > 0 and finite")},
	{"workload", "poisson:1:2", rejected("experiment: workload: poisson spec needs 1 parameter(s), got \"1:2\"")},
	{"workload", "interval:0", rejected("experiment: workload: interval spacing = 0, need > 0 and finite")},
	{"workload", "pareto-onoff:2:30", rejected("experiment: workload: pareto-onoff spec needs 4 parameter(s), got \"2:30\"")},
	{"workload", "onoff", rejected("experiment: workload: pareto-onoff spec needs 4 parameter(s), got \"\"")},
	{"workload", "diurnal:3600:2:poisson:1", rejected("experiment: workload: diurnal amplitude = 2 outside [0, 1]")},
	{"workload", "diurnal:3600:0.5:bogus:1", rejected("experiment: workload: diurnal inner process: workload: unknown arrival process \"bogus\" (known: interval, poisson, pareto-onoff, diurnal, flashcrowd, replay)")},
	{"workload", "flash:600:10:120:onoff:2:30:90:1.5", rejected("experiment: workload: flashcrowd inner process: workload: unknown arrival process \"onoff\" (known: interval, poisson, pareto-onoff, diurnal, flashcrowd, replay)")},
	{"workload", "flashcrowd:600:10:0:poisson:1", rejected("experiment: workload: flashcrowd decay = 0, need > 0 and finite")},
	{"workload", "", rejected("experiment: unknown workload \"\" (registered: diurnal, flashcrowd, interval, pareto-onoff, poisson, replay)")},
	{"workload", "bogus", rejected("experiment: unknown workload \"bogus\" (registered: diurnal, flashcrowd, interval, pareto-onoff, poisson, replay)")},
	{"workload", "Poisson:0.5", rejected("experiment: unknown workload \"Poisson:0.5\" (registered: diurnal, flashcrowd, interval, pareto-onoff, poisson, replay)")},
	{"workload", "interval:30:1", rejected("experiment: workload: interval spec needs 1 parameter(s), got \"30:1\"")},

	{"application", "gossip-learning", accepted("gossip-learning", "gossip-learning", "gossip-learning", false)},
	{"application", "learning", accepted("gossip-learning", "gossip-learning", "gossip-learning", false)},
	{"application", "gl", accepted("gossip-learning", "gossip-learning", "gossip-learning", false)},
	{"application", "push-gossip", accepted("push-gossip", "push-gossip", "push-gossip", false)},
	{"application", "broadcast", accepted("push-gossip", "push-gossip", "push-gossip", false)},
	{"application", "pg", accepted("push-gossip", "push-gossip", "push-gossip", false)},
	{"application", "chaotic-iteration", accepted("chaotic-iteration", "chaotic-iteration", "chaotic-iteration", false)},
	{"application", "poweriter", accepted("chaotic-iteration", "chaotic-iteration", "chaotic-iteration", false)},
	{"application", "ci", accepted("chaotic-iteration", "chaotic-iteration", "chaotic-iteration", false)},
	{"application", "blockcast", accepted("blockcast", "blockcast", "blockcast", false)},
	{"application", "bc", accepted("blockcast", "blockcast", "blockcast", false)},
	{"application", "blockcast:32", accepted("blockcast", "blockcast:32", "blockcast:32", false)},
	{"application", "bc:32", accepted("blockcast", "blockcast:32", "blockcast:32", false)},
	{"application", "blockcast:32:86.4", accepted("blockcast", "blockcast:32:86.4", "blockcast:32:86.4", false)},
	{"application", "blockcast:64", accepted("blockcast", "blockcast:64", "blockcast:64", false)},
	{"application", "blockcast:4194303", accepted("blockcast", "blockcast:4194303", "blockcast:4194303", false)},
	{"application", " blockcast:8 ", accepted("blockcast", "blockcast:8", "blockcast:8", false)},
	{"application", " pg ", accepted("push-gossip", "push-gossip", "push-gossip", false)},
	{"application", "blockcast:0", rejected("experiment: blockcast batch cap \"0\": need an integer in [1, 4194303]")},
	{"application", "blockcast:4194304", rejected("experiment: blockcast batch cap \"4194304\": need an integer in [1, 4194303]")},
	{"application", "blockcast:x", rejected("experiment: blockcast batch cap \"x\": need an integer in [1, 4194303]")},
	{"application", "blockcast:", rejected("experiment: blockcast batch cap \"\": need an integer in [1, 4194303]")},
	{"application", "blockcast:32:0", rejected("experiment: blockcast block interval \"0\": need a positive number of seconds")},
	{"application", "blockcast:32:x", rejected("experiment: blockcast block interval \"x\": need a positive number of seconds")},
	{"application", "blockcast:32:-1", rejected("experiment: blockcast block interval \"-1\": need a positive number of seconds")},
	{"application", "blockcast:1:2:3", rejected("experiment: blockcast takes at most 2 parameters (batchCap[:blockInterval]), got \"1:2:3\"")},
	{"application", "push-gossip:1", rejected("experiment: application \"push-gossip\" takes no parameters, got \"1\"")},
	{"application", "gl:x", rejected("experiment: application \"gl\" takes no parameters, got \"x\"")},
	{"application", "chaotic-iteration:", rejected("experiment: application \"chaotic-iteration\" takes no parameters, got \"\"")},
	{"application", "", rejected("experiment: unknown application \"\" (registered: blockcast, chaotic-iteration, gossip-learning, push-gossip)")},
	{"application", "nope", rejected("experiment: unknown application \"nope\" (registered: blockcast, chaotic-iteration, gossip-learning, push-gossip)")},
	{"application", "Push-Gossip", rejected("experiment: unknown application \"Push-Gossip\" (registered: blockcast, chaotic-iteration, gossip-learning, push-gossip)")},
	{"application", "gossip_learning", rejected("experiment: unknown application \"gossip_learning\" (registered: blockcast, chaotic-iteration, gossip-learning, push-gossip)")},

	{"scenario", "failure-free", accepted("failure-free", "failure-free", "failure-free", false)},
	{"scenario", "ff", accepted("failure-free", "failure-free", "failure-free", false)},
	{"scenario", " ff ", accepted("failure-free", "failure-free", "failure-free", false)},
	{"scenario", "smartphone-trace", accepted("smartphone-trace", "smartphone-trace", "smartphone-trace", false)},
	{"scenario", "trace", accepted("smartphone-trace", "smartphone-trace", "smartphone-trace", false)},
	{"scenario", "churn", accepted("smartphone-trace", "smartphone-trace", "smartphone-trace", false)},
	{"scenario", "outage", accepted("outage", "outage:4:0.1:900", "outage:4:0.1:900", false)},
	{"scenario", "outages", accepted("outage", "outage:4:0.1:900", "outage:4:0.1:900", false)},
	{"scenario", "outage:2:0.5:600", accepted("outage", "outage:2:0.5:600", "outage:2:0.5:600", false)},
	{"scenario", "outages:8:0.1:900", accepted("outage", "outage:8:0.1:900", "outage:8:0.1:900", false)},
	{"scenario", " outage:2:0.5:600 ", accepted("outage", "outage:2:0.5:600", "outage:2:0.5:600", false)},
	{"scenario", "crash-burst", accepted("crash-burst", "crash-burst(f=0.3)", "crash-burst(f=0.3)", false)},
	{"scenario", "crashburst", accepted("crash-burst", "crash-burst(f=0.3)", "crash-burst(f=0.3)", false)},
	{"scenario", "burst", accepted("crash-burst", "crash-burst(f=0.3)", "crash-burst(f=0.3)", false)},
	{"scenario", "crash-burst:0.4", accepted("crash-burst", "crash-burst(f=0.4)", "crash-burst(f=0.4)", false)},
	{"scenario", "crash-burst:1", accepted("crash-burst", "crash-burst(f=1)", "crash-burst(f=1)", false)},
	{"scenario", "crash-burst:0.4:30", accepted("crash-burst", "crash-burst(f=0.4,at=30)", "crash-burst(f=0.4,at=30)", false)},
	{"scenario", "crash-burst:0.4:30:10", accepted("crash-burst", "crash-burst(f=0.4,at=30,down=10)", "crash-burst(f=0.4,at=30,down=10)", false)},
	{"scenario", "crashburst:0.25:40:20", accepted("crash-burst", "crash-burst(f=0.25,at=40,down=20)", "crash-burst(f=0.25,at=40,down=20)", false)},
	{"scenario", "outage:x:0.5:600", rejected("workload: outage zones: bad integer \"x\"")},
	{"scenario", "outage:2:x:600", rejected("workload: outage probability: bad number \"x\"")},
	{"scenario", "outage:2:0.5:x", rejected("workload: outage duration: bad number \"x\"")},
	{"scenario", "outage:2", rejected("workload: outage scenario needs zones:p:duration, got 1 argument(s)")},
	{"scenario", "outage:", rejected("workload: outage scenario needs zones:p:duration, got 1 argument(s)")},
	{"scenario", "outage:2:0.5:600:1", rejected("workload: outage scenario needs zones:p:duration, got 4 argument(s)")},
	{"scenario", "outage:0:0.5:600", rejected("workload: outage zones = 0, need ≥ 1")},
	{"scenario", "outage:2:1.5:600", rejected("workload: outage probability = 1.5 outside [0, 1]")},
	{"scenario", "outage:2:0.5:0", rejected("workload: outage duration = 0, need > 0 and finite")},
	{"scenario", "crash-burst:0", rejected("crashburst: bad fraction \"0\" (want a number in (0, 1])")},
	{"scenario", "crash-burst:1.5", rejected("crashburst: bad fraction \"1.5\" (want a number in (0, 1])")},
	{"scenario", "crash-burst:-0.5", rejected("crashburst: bad fraction \"-0.5\" (want a number in (0, 1])")},
	{"scenario", "crash-burst:x", rejected("crashburst: bad fraction \"x\" (want a number in (0, 1])")},
	{"scenario", "crash-burst:", rejected("crashburst: bad fraction \"\" (want a number in (0, 1])")},
	{"scenario", "crash-burst:0.4:0", rejected("crashburst: bad round count \"0\" (want a positive integer)")},
	{"scenario", "crash-burst:0.4:x", rejected("crashburst: bad round count \"x\" (want a positive integer)")},
	{"scenario", "burst:0.5::", rejected("crashburst: bad round count \"\" (want a positive integer)")},
	{"scenario", "crash-burst:0.4:30:-1", rejected("crashburst: bad round count \"-1\" (want a positive integer)")},
	{"scenario", "crash-burst:0.4:30:0", rejected("crashburst: bad round count \"0\" (want a positive integer)")},
	{"scenario", "crash-burst:0.4:30:10:7", rejected("crashburst: unexpected trailing parameter(s) [7] (want crash-burst[:fraction[:crashRound[:downRounds]]])")},
	{"scenario", "failure-free:1", rejected("experiment: scenario \"failure-free\" takes no parameters, got \"1\"")},
	{"scenario", "ff:1", rejected("experiment: scenario \"failure-free\" takes no parameters, got \"1\"")},
	{"scenario", "smartphone-trace:x", rejected("experiment: scenario \"smartphone-trace\" takes no parameters, got \"x\"")},
	{"scenario", "churn:", rejected("experiment: scenario \"smartphone-trace\" takes no parameters, got \"\"")},
	{"scenario", "", rejected("experiment: unknown scenario \"\" (registered: crash-burst, failure-free, outage, smartphone-trace)")},
	{"scenario", "nope", rejected("experiment: unknown scenario \"nope\" (registered: crash-burst, failure-free, outage, smartphone-trace)")},
	{"scenario", "Failure-Free", rejected("experiment: unknown scenario \"Failure-Free\" (registered: crash-burst, failure-free, outage, smartphone-trace)")},
	{"scenario", "crash_burst", rejected("experiment: unknown scenario \"crash_burst\" (registered: crash-burst, failure-free, outage, smartphone-trace)")},
}

// TestSpecStringsParseAsBefore pins what every spec string of the six
// dimensions parses to, so the parsers can be restructured without a
// spec changing its driver, its labels or its error.
func TestSpecStringsParseAsBefore(t *testing.T) {
	for _, tc := range specStringCases {
		got := describeSpec(tc.dim, tc.spec)
		if tc.want.err != "" {
			if got.err == "" || !strings.Contains(got.err, tc.want.err) {
				t.Errorf("%s %q: got %+v, want error containing %q", tc.dim, tc.spec, got, tc.want.err)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s %q: got %+v, want %+v", tc.dim, tc.spec, got, tc.want)
		}
	}
	// A strategy the parser accepts must build: Build's errors are parse
	// errors, not run-time surprises.
	for _, tc := range specStringCases {
		if tc.dim != "strategy" || tc.want.err != "" {
			continue
		}
		spec, err := ParseStrategySpec(tc.spec)
		if err == nil {
			_, err = spec.Build()
		}
		if err != nil {
			t.Errorf("strategy %q is accepted but does not build: %v", tc.spec, err)
		}
	}

	// Specs built by hand: Build's errors, and the fallbacks of a kind
	// outside the five families (the kind match is exact; only
	// ParseStrategySpec folds case).
	unknown := "(registered: generalized, proactive, randomized, reactive, simple)"
	for _, tc := range []struct {
		spec              StrategySpec
		str, label, build string
	}{
		{Simple(0), "simple:0", "simple(C=0)", "simple(C=0)"},
		{Simple(-3), "simple:-3", "simple(C=-3)", "error NewSimple(C=-3): core: capacity C must be non-negative"},
		{Generalized(5, 3), "generalized:5:3", "generalized(A=5,C=3)", "error NewGeneralized(A=5,C=3): core: capacity C must be at least A"},
		{StrategySpec{Kind: KindReactive}, "reactive:0", "reactive(k=1)", "reactive(k=1,useful-only)"},
		{StrategySpec{Kind: KindReactive, A: -1}, "reactive:-1", "reactive(k=-1)", "error NewPureReactive(k=-1): core: reactive fanout k must be a positive integer"},
		{StrategySpec{Kind: KindProactive, A: 4, C: 9}, "proactive", "proactive", "proactive"},
		{StrategySpec{Kind: "wat", A: 1, C: 2}, "wat:1:2", "wat(A=1,C=2)", `error experiment: unknown strategy kind "wat" ` + unknown},
		{StrategySpec{Kind: "Simple", C: 3}, "Simple:0:3", "Simple(A=0,C=3)", `error experiment: unknown strategy kind "Simple" ` + unknown},
	} {
		build := ""
		if s, err := tc.spec.Build(); err != nil {
			build = "error " + err.Error()
		} else {
			build = s.Name()
		}
		if got := [3]string{tc.spec.String(), tc.spec.Label(), build}; got != [3]string{tc.str, tc.label, tc.build} {
			t.Errorf("%#v: got %q, want %q", tc.spec, got, [3]string{tc.str, tc.label, tc.build})
		}
	}

	// The §4.2 grids: size and end points per kind; nil outside the families.
	for _, tc := range []struct {
		kind        StrategyKind
		n           int
		first, last string
	}{
		{KindProactive, 1, "proactive", "proactive"},
		{KindSimple, 34, "simple:1", "simple:120"},
		{KindGeneralized, 63, "generalized:1:1", "generalized:40:120"},
		{KindRandomized, 63, "randomized:1:1", "randomized:40:120"},
		{KindReactive, 0, "", ""},
		{"wat", 0, "", ""},
		{"Simple", 0, "", ""},
	} {
		grid := ParameterGrid(tc.kind)
		var first, last string
		if len(grid) > 0 {
			first, last = grid[0].String(), grid[len(grid)-1].String()
		}
		if len(grid) != tc.n || first != tc.first || last != tc.last {
			t.Errorf("ParameterGrid(%q): %d entries %q … %q, want %d entries %q … %q",
				tc.kind, len(grid), first, last, tc.n, tc.first, tc.last)
		}
	}
}
