// Command bench is the repository benchmark: three simulator workloads and
// two live-TCP relays, measured end to end with tracing off and layer by
// layer in a separate traced pass. See README.md in this directory.
//
//	bash bench/run.sh --workload sim-fig2-5k --seed 1 --seconds 15 --trace 0
//
// runs one workload in this process and prints, as the last line of standard
// output, one JSON object with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1, which also writes the span file). Without
// --workload, every workload runs in a child process of its own, so that
// peak_rss_mb is per workload; -aa N repeats that N times and checks the
// benchmark's own repeatability against its bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultSeconds is the measuring time of one run (run_seconds in
// BENCHMARK.json): seven reps of sim-fig2-5k, four of sim-scale-500k-x2, and
// a million ping-pong hops, inside the driver's time cap for 114 runs.
const defaultSeconds = 15

func main() {
	var (
		workload = flag.String("workload", "", "run this workload in-process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "measuring time of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass, per-layer metrics and the span file")
		spans    = flag.String("spans", "", "span file of the traced pass (default .bench_build/spans-<workload>.json)")
		aa       = flag.Int("aa", 0, "run the whole end-to-end benchmark this many times and check every metric's largest pairwise difference against its bound")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *spans, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace int, spans string, aa int) error {
	switch {
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace %d, want 0 or 1", trace)
	case seconds <= 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0):
		return fmt.Errorf("-seconds %v, want a positive number", seconds)
	}
	if err := pinProcs(); err != nil {
		return err
	}
	if workload != "" {
		w := findWorkload(workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workload)
		}
		if spans == "" {
			spans = filepath.Join(".bench_build", "spans-"+w.name+".json")
		}
		return runOne(w, seed, seconds, trace == 1, spans)
	}
	fmt.Println(hostHeader())
	if aa > 0 {
		return runAA(aa, seed, seconds)
	}
	_, err := runAll(seed, seconds, trace == 1)
	return err
}

// runOne measures one workload in this process and prints its metrics and
// the result line.
func runOne(w *workloadDef, seed uint64, seconds float64, traced bool, spansPath string) error {
	fmt.Println(hostHeader())
	fmt.Printf("# workload %s seed %d seconds %g trace %t\n", w.name, seed, seconds, traced)
	calibBefore := calibrate()
	var (
		r    result
		err  error
		log  *spanLog
		defs = endToEnd
	)
	if traced {
		log, defs = &spanLog{}, perLayer
	}
	switch {
	case w.sim != nil && traced:
		r, err = runSimTraced(*w, seed, log)
	case w.sim != nil:
		r, err = runSimEndToEnd(*w, seed, seconds)
	case traced:
		r, err = runLiveTraced(*w.live, seed, seconds, log)
	default:
		r, err = runLiveEndToEnd(*w, seed, seconds)
	}
	if err != nil {
		return fmt.Errorf("workload %s: %w", w.name, err)
	}
	calibAfter := calibrate()
	noisy := math.Abs(calibAfter-calibBefore) > 0.10*calibBefore
	fmt.Printf("# host calibration: %.1f ms before, %.1f ms after, noisy=%t\n", calibBefore, calibAfter, noisy)
	if traced {
		r.metrics["host.calib_ms_before"] = calibBefore
		r.metrics["host.calib_ms_after"] = calibAfter
		r.metrics["host.loadavg1"] = loadavg1()
		if err := log.write(spansPath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(log.spans), spansPath)
	}
	printMetrics(r, defs)
	fmt.Printf("# correct=%t attempted=%d failed=%d\n", r.correct, r.attempted, r.failed)
	line, err := resultLine(r, defs, !traced)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// runChild runs one workload in a child process of this binary and returns
// its decoded result line; the child's other output is passed through.
func runChild(w workloadDef, seed uint64, seconds float64, traced bool) (resultJSON, error) {
	self, err := os.Executable()
	if err != nil {
		return resultJSON{}, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes())
		return resultJSON{}, fmt.Errorf("workload %s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var r resultJSON
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return resultJSON{}, fmt.Errorf("workload %s: bad result line %q: %w", w.name, last, err)
	}
	return r, nil
}

// runAll runs every workload once — end to end, and with traced set the
// traced pass as well — and returns the end-to-end results by workload.
func runAll(seed uint64, seconds float64, traced bool) (map[string]resultJSON, error) {
	results := map[string]resultJSON{}
	var bad []string
	for _, w := range workloads {
		fmt.Printf("\n== %s ==\n", w.name)
		r, err := runChild(w, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		results[w.name] = r
		if !r.Correct {
			bad = append(bad, w.name)
		}
		if traced {
			tr, err := runChild(w, seed, seconds, true)
			if err != nil {
				return nil, err
			}
			if !tr.Correct {
				bad = append(bad, w.name+" (traced)")
			}
		}
	}
	if len(bad) > 0 {
		return results, fmt.Errorf("incorrect output on: %s", strings.Join(bad, ", "))
	}
	return results, nil
}

// runAA is the benchmark's check on itself: the same code, run several
// times, must agree with itself within the bounds it sets for others.
func runAA(runs int, seed uint64, seconds float64) error {
	all := make([]map[string]resultJSON, 0, runs)
	for i := 0; i < runs; i++ {
		fmt.Printf("\n#### A/A run %d of %d ####\n", i+1, runs)
		r, err := runAll(seed, seconds, false)
		if err != nil {
			return err
		}
		all = append(all, r)
	}
	fmt.Printf("\n%-22s %-18s %12s %12s %9s %7s\n", "workload", "metric", "min", "max", "spread", "bound")
	var over []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range all {
				v := r[w.name].Metrics[d.Name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			spread := (hi - lo) / lo
			mark := ""
			if spread > d.Bound {
				mark = "  OVER"
				over = append(over, w.name+"/"+d.Name)
			}
			fmt.Printf("%-22s %-18s %12.6g %12.6g %8.2f%% %6.0f%%%s\n", w.name, d.Name, lo, hi, 100*spread, 100*d.Bound, mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A spread exceeds the bound on: %s", strings.Join(over, ", "))
	}
	return nil
}
