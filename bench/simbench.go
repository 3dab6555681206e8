package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/simnet"
)

// simSpec is one simulator workload in the spec grammar of cmd/tokensim, so
// every workload can be reproduced with that command.
type simSpec struct {
	app, strategy, scenario, network, workload, runtime string
	n, rounds                                           int
}

// config resolves the spec through the public registries, as a user's
// command line would.
func (s simSpec) config(seed uint64) (experiment.Config, error) {
	app, err := experiment.ParseApplication(s.app)
	if err != nil {
		return experiment.Config{}, err
	}
	strategy, err := experiment.ParseStrategySpec(s.strategy)
	if err != nil {
		return experiment.Config{}, err
	}
	scenario, err := experiment.ParseScenario(s.scenario)
	if err != nil {
		return experiment.Config{}, err
	}
	network, err := experiment.ParseNetwork(s.network)
	if err != nil {
		return experiment.Config{}, err
	}
	wl, err := experiment.ParseWorkload(s.workload)
	if err != nil {
		return experiment.Config{}, err
	}
	rt, err := experiment.ParseRuntime(s.runtime)
	if err != nil {
		return experiment.Config{}, err
	}
	return experiment.Config{
		App: app, Strategy: strategy, Scenario: scenario, Network: network, Workload: wl, Runtime: rt,
		N: s.n, Rounds: s.rounds, Repetitions: 1, Seed: seed,
		// The churn workload breaks the experiment layer's own §3.4 audit
		// today (a correctness item for a later change); the traced pass
		// counts the violations instead of failing the run.
		AuditRateLimit: false,
	}, nil
}

// repResult is one repetition as seen from outside experiment.Run.
type repResult struct {
	probe *repProbe
	res   *experiment.Result

	wallNs   int64 // the whole experiment.Run call
	runNs    int64 // inside Env.Run
	runCPUNs int64 // process CPU inside Env.Run
}

// setupNs is the rep's wall time outside Env.Run and outside the probe's own
// collection between the two.
func (r repResult) setupNs() int64 {
	return r.wallNs - r.runNs - (r.probe.runStart - r.probe.setupEnd)
}

// segments cuts the Env.Run window at the probe's marks and returns the wall
// and CPU time of each piece. Reps of one seed are cut at the same points of
// the simulated work.
func (r repResult) segments() (wall, cpu []int64) {
	p := r.probe
	bounds := make([]mark, 0, len(p.marks)+2)
	bounds = append(bounds, mark{ns: p.runStart, cpuNs: p.usageAtRunStart.cpuNs})
	bounds = append(bounds, p.marks...)
	bounds = append(bounds, mark{ns: p.runEnd, cpuNs: p.usageAtRunEnd.cpuNs})
	for i := 1; i < len(bounds); i++ {
		wall = append(wall, bounds[i].ns-bounds[i-1].ns)
		cpu = append(cpu, bounds[i].cpuNs-bounds[i-1].cpuNs)
	}
	return wall, cpu
}

// sameOutput reports whether two reps of one seed did bit-identical simulated
// work: events, messages and the final metric.
func (r repResult) sameOutput(o repResult) bool {
	return r.res.EventsProcessed == o.res.EventsProcessed &&
		r.res.MessagesSent == o.res.MessagesSent &&
		math.Float64bits(r.res.FinalMetric) == math.Float64bits(o.res.FinalMetric)
}

// repOptions selects what a repetition carries besides the stamps every rep
// has.
type repOptions struct {
	log      *spanLog // non-nil: wrap environment, hooks and applications, and record spans
	memstats bool     // read the Go heap statistics at the set-up and run boundaries
	segments bool     // stamp the run at segmentsPerRep of its metric samples
}

// segmentsPerRep is how many pieces an end-to-end rep's run is cut into, give
// or take one: 50 to 400 ms each, long against the scheduler tick at which the
// kernel accounts the CPU time of threads other than the calling one, short
// against the seconds for which a neighbour slows the host.
const segmentsPerRep = 32

// runRep executes one repetition under a probe.
func runRep(spec simSpec, seed uint64, opts repOptions) (repResult, error) {
	cfg, err := spec.config(seed)
	if err != nil {
		return repResult{}, err
	}
	log := opts.log
	p := &repProbe{memstats: opts.memstats}
	if log != nil {
		p.trace = newSimTrace(log)
	}
	if opts.segments {
		p.markStride = (spec.rounds + segmentsPerRep - 1) / segmentsPerRep
		p.marks = make([]mark, 0, segmentsPerRep)
	}
	settleHeap()
	if opts.memstats {
		goruntime.ReadMemStats(&p.memAtRepStart)
	}
	// Set-up runs with the collector off; the probe turns it back on, and
	// collects, between set-up and run (see runProbe.Start).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p.repStart = nanotime()
	res, err := experiment.Run(p.decorate(cfg))
	end := nanotime()
	if err != nil {
		return repResult{}, err
	}
	r := repResult{
		probe:    p,
		res:      res,
		wallNs:   end - p.repStart,
		runNs:    p.runEnd - p.runStart,
		runCPUNs: p.usageAtRunEnd.cpuNs - p.usageAtRunStart.cpuNs,
	}
	if log != nil {
		repID := log.newID()
		log.add("rep", repID, 0, p.repStart, end)
		for _, s := range p.setupSpans {
			log.add(s.name, log.newID(), repID, s.start, s.end)
		}
		log.add("runtime.newhost", log.newID(), repID, p.newEnvEnd, p.setupEnd)
		log.add("simnet.run", p.trace.root, repID, p.runStart, p.runEnd)
	}
	return r, nil
}

// idleGoroutines is the goroutine count before the first rep.
var idleGoroutines int

// settleHeap makes every rep start like the first: from a collected heap
// handed back to the operating system, so every rep faults its pages in anew,
// as a user's one run does, and peak_rss_mb is one rep's footprint. (With the
// heap collected but kept, a 3 ms set-up took 2.1 or 2.9 ms by how much of it
// the scavenger had returned in the meantime.) It first waits for the previous
// rep's goroutines: sim.ShardedEngine.Close signals its shard workers and
// returns, and until a worker has exited it keeps the whole previous host
// reachable (the next rep then peaked at 724 MB instead of 461 MB, in three
// runs out of ten).
func settleHeap() {
	if idleGoroutines == 0 {
		idleGoroutines = goruntime.NumGoroutine()
	}
	for deadline := nanotime() + 1e9; goruntime.NumGoroutine() > idleGoroutines && nanotime() < deadline; {
		time.Sleep(time.Millisecond)
	}
	debug.FreeOSMemory()
}

// checkOutput applies the checks that hold for any seed: the run did work,
// the metric is a number, and no node exceeded its token budget — over the
// whole run a node sends at most one message per round plus its capacity
// (§3.4 with t = the run length).
func checkOutput(spec simSpec, r repResult) error {
	res := r.res
	switch {
	case res.EventsProcessed <= 0 || res.MessagesSent <= 0:
		return fmt.Errorf("run did no work: %v events, %v messages", res.EventsProcessed, res.MessagesSent)
	case res.EventsProcessed < res.MessagesSent:
		return fmt.Errorf("%v events cannot carry %v messages", res.EventsProcessed, res.MessagesSent)
	case math.IsNaN(res.FinalMetric) || math.IsInf(res.FinalMetric, 0):
		return fmt.Errorf("final metric is %v", res.FinalMetric)
	}
	strategy, err := res.Config.Strategy.Build()
	if err != nil {
		return err
	}
	if c := strategy.Capacity(); c >= 0 {
		if budget := float64(spec.n) * float64(spec.rounds+c); res.MessagesSent > budget {
			return fmt.Errorf("%v messages exceed the token budget %v of %d nodes over %d rounds", res.MessagesSent, budget, spec.n, spec.rounds)
		}
	}
	return nil
}

// minRepsPerRun is the fewest reps an end-to-end run makes: two are needed to
// check that reps repeat bit for bit.
const minRepsPerRun = 2

// runSimEndToEnd is the untraced pass of a simulator workload: it repeats the
// rep, same seed, for the measuring time. The simulator is deterministic, so
// every rep does bit-identical work (checked), what differs between reps is
// the host, and the host only ever adds time. Each rep's run is cut into
// segments at the same metric samples; the reported run time is the sum, over
// the segments, of the fastest rep's time for that segment, and CPU time
// likewise. That is the fastest-rep estimator applied piecewise: a neighbour
// that slows the host for a second spoils a few segments of one rep, not the
// rep. Set-up time is the fastest rep's. The collector is on inside the run,
// as it is for a user; around the run the heap is put into a known state (see
// settleHeap and runProbe.Start).
func runSimEndToEnd(w workloadDef, seed uint64, seconds float64) (result, error) {
	spec := *w.sim
	var reps []repResult
	failed := int64(0)
	var firstErr error
	start := nanotime()
	for len(reps)+int(failed) < minRepsPerRun || float64(nanotime()-start) < seconds*1e9 {
		r, err := runRep(spec, seed, repOptions{segments: true})
		if err == nil {
			err = checkOutput(spec, r)
		}
		if err == nil && len(reps) > 0 && !r.sameOutput(reps[0]) {
			err = fmt.Errorf("rep %d differs from rep 0: events %v vs %v, messages %v vs %v, final metric %v vs %v",
				len(reps), r.res.EventsProcessed, reps[0].res.EventsProcessed, r.res.MessagesSent, reps[0].res.MessagesSent,
				r.res.FinalMetric, reps[0].res.FinalMetric)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			fmt.Printf("# rep failed: %v\n", err)
			if failed >= 3 {
				break
			}
			continue
		}
		reps = append(reps, r)
	}
	if len(reps) == 0 {
		return result{}, fmt.Errorf("no rep succeeded: %w", firstErr)
	}
	events := reps[0].res.EventsProcessed
	n := len(reps)
	runs, cpus, setups := make([]float64, n), make([]float64, n), make([]float64, n)
	var bestWall, bestCPU []int64
	for i, r := range reps {
		runs[i], cpus[i], setups[i] = float64(r.runNs), float64(r.runCPUNs), float64(r.setupNs())
		wall, cpu := r.segments()
		if i == 0 {
			bestWall, bestCPU = wall, cpu
			continue
		}
		for j := range wall {
			bestWall[j], bestCPU[j] = min(bestWall[j], wall[j]), min(bestCPU[j], cpu[j])
		}
	}
	runNs, cpuNs := 0.0, 0.0
	for j := range bestWall {
		runNs += float64(bestWall[j])
		cpuNs += float64(bestCPU[j])
	}
	for _, v := range [][]float64{runs, cpus, setups} {
		sort.Float64s(v)
	}
	fmt.Printf("# %d reps of %.0f events, %.0f messages, final metric %g\n", n, events, reps[0].res.MessagesSent, reps[0].res.FinalMetric)
	fmt.Printf("# run ms: whole reps fastest %.1f median %.1f slowest %.1f (spread %.1f%%); fastest rep of each of %d segments, summed: %.1f\n",
		runs[0]/1e6, percentile(runs, 0.5)/1e6, runs[n-1]/1e6, 100*(runs[n-1]-runs[0])/runs[0], len(bestWall), runNs/1e6)
	fmt.Printf("# run CPU ms: whole reps fastest %.1f median %.1f slowest %.1f; by segment %.1f\n",
		cpus[0]/1e6, percentile(cpus, 0.5)/1e6, cpus[n-1]/1e6, cpuNs/1e6)
	fmt.Printf("# set-up ms: fastest %.2f median %.2f slowest %.2f\n", setups[0]/1e6, percentile(setups, 0.5)/1e6, setups[n-1]/1e6)
	return result{
		correct:   failed == 0,
		attempted: int64(n) + failed,
		failed:    failed,
		metrics: map[string]float64{
			"events_per_sec":   events / (runNs / 1e9),
			"cpu_us_per_event": cpuNs / 1e3 / events,
			"setup_s":          setups[0] / 1e9,
			"peak_rss_mb":      readUsage().maxRSSMB,
		},
	}, nil
}

// fastestOf runs an untraced rep count times and returns the one with the
// shortest run.
func fastestOf(count int, spec simSpec, seed uint64, memstats bool) (repResult, error) {
	var best repResult
	for i := 0; i < count; i++ {
		r, err := runRep(spec, seed, repOptions{memstats: memstats})
		if err != nil {
			return repResult{}, err
		}
		if i == 0 || r.runNs < best.runNs {
			best = r
		}
	}
	return best, nil
}

// runSimTraced is the traced pass of a simulator workload: untraced reps for
// the reference run time and the Go heap numbers, then one rep under the
// wrapping decorators for the per-layer numbers. A sharded workload is traced
// on a shards = 1 rep of the same configuration (the callbacks of a sharded
// run execute on several goroutines at once; the sequential rep shows which
// layer pays the cache misses), and additionally reports what sharding buys.
func runSimTraced(w workloadDef, seed uint64, log *spanLog) (result, error) {
	spec := *w.sim
	m := map[string]float64{}
	seq := spec
	untracedReps := 2
	var sharded repResult
	if w.sequentialRuntime != "" {
		var err error
		if sharded, err = fastestOf(1, spec, seed, false); err != nil {
			return result{}, err
		}
		seq.runtime = w.sequentialRuntime
		untracedReps = 1 // a rep takes ten seconds at this size
	}
	untraced, err := fastestOf(untracedReps, seq, seed, true)
	if err != nil {
		return result{}, err
	}
	if w.sequentialRuntime != "" {
		m["sim.sharded.cpu_per_wall"] = float64(sharded.runCPUNs) / float64(sharded.runNs)
		m["sim.sharded.speedup"] = (sharded.res.EventsProcessed / float64(sharded.runNs)) / (untraced.res.EventsProcessed / float64(untraced.runNs))
	}
	traced, err := runRep(seq, seed, repOptions{log: log})
	if err != nil {
		return result{}, err
	}
	failed := int64(0)
	if err := checkOutput(seq, traced); err != nil {
		failed++
		fmt.Printf("# traced rep failed: %v\n", err)
	}
	if !traced.sameOutput(untraced) {
		failed++
		fmt.Printf("# traced rep differs from the untraced one: events %v vs %v, messages %v vs %v\n",
			traced.res.EventsProcessed, untraced.res.EventsProcessed, traced.res.MessagesSent, untraced.res.MessagesSent)
	}

	p, t := traced.probe, traced.probe.trace
	events := traced.res.EventsProcessed
	m["overlay.build_ms"] = float64(p.overlayNs) / 1e6
	m["trace.build_ms"] = float64(p.traceNs) / 1e6
	m["experiment.newrun_ms"] = float64(p.newRunNs) / 1e6
	m["simnet.newenv_ms"] = float64(p.newEnvNs) / 1e6
	m["runtime.newhost_ms"] = float64(p.setupEnd-p.newEnvEnd) / 1e6
	up := untraced.probe
	m["runtime.bytes_per_node"] = (float64(up.memAtRunStart.HeapAlloc) - float64(up.memAtRepStart.HeapAlloc)) / float64(seq.n)
	m["go.allocs_per_event"] = float64(up.memAtRunEnd.Mallocs-up.memAtRunStart.Mallocs) / events
	m["go.gc_cycles"] = float64(up.memAtRunEnd.NumGC - up.memAtRunStart.NumGC)
	m["go.heap_peak_mb"] = float64(up.memAtRunEnd.HeapSys) / (1 << 20)

	m["simnet.run_ms"] = float64(traced.runNs) / 1e6
	m["trace.overhead_ratio"] = float64(traced.runNs) / float64(untraced.runNs)
	m["sim.events"] = events
	m["simnet.sends"] = float64(t.stats[layerSend].calls)
	m["runtime.deliveries"] = float64(t.stats[layerDeliver].calls)
	m["runtime.hooks"] = float64(t.stats[layerHook].calls)
	m["runtime.msgs_dropped"] = float64(p.dropped)
	m["workload.injections_skipped"] = traced.res.InjectionsSkipped
	if p.stats.Received > 0 {
		m["protocol.useful_ratio"] = float64(p.stats.UsefulReceived) / float64(p.stats.Received)
	}
	if sent := p.stats.TotalSent(); sent > 0 {
		m["protocol.reactive_share"] = float64(p.stats.ReactiveSent) / float64(sent)
	}
	m["core.audit_violations"] = float64(p.auditViolations)

	c := t.clockCost()
	deliver, hook, timer := t.stats[layerDeliver], t.stats[layerHook], t.stats[layerTimer]
	send, update, create := t.stats[layerSend], t.stats[layerUpdate], t.stats[layerCreate]
	// Each layer is measured on its own inside the timed bursts: the engine
	// from the gaps between callbacks, the others from their spans. Timed
	// code runs slower than untimed code by more than the clock reads that
	// can be taken out (10 to 20 % here), so the bursts are used for what they
	// measure well — each layer's share — and the run, which is timed as a
	// whole, for the total: the estimates are scaled to add up to it.
	shares := []struct {
		metric string
		ns     float64 // the layer's estimated self time over the whole run
		per    float64 // what the metric is reported per: calls, or 1e6 for a total in ms
	}{
		{"sim.engine_self_ns", t.engineSelf() * events, events},
		{"simnet.send_ns", send.perCall(c) * float64(send.calls), float64(send.calls)},
		{"runtime.deliver_self_ns", deliver.selfPerCall(c) * float64(deliver.calls), float64(deliver.calls)},
		{"runtime.hook_self_ns", hook.selfPerCall(c) * float64(hook.calls), float64(hook.calls)},
		{"apps.update_ns", update.perCall(c) * float64(update.calls), float64(update.calls)},
		{"apps.create_ns", create.perCall(c) * float64(create.calls), float64(create.calls)},
		{"experiment.timer_ms", timer.selfPerCall(c) * float64(timer.calls), 1e6},
	}
	sum := 0.0
	for _, s := range shares {
		sum += s.ns
	}
	for _, s := range shares {
		if s.per > 0 && sum > 0 {
			m[s.metric] = s.ns * float64(traced.runNs) / sum / s.per
		}
	}
	fmt.Printf("# timed bursts read %.1f%% of simnet.run_ms before scaling (1 in %d callbacks timed: %d deliveries, %d hooks; clock read %.0f ns)\n",
		100*sum/float64(traced.runNs), burstPeriod/burstLen, deliver.timed, hook.timed, c)

	if err := directLoops(seq, seed, m); err != nil {
		return result{}, err
	}
	if w.costBase != nil {
		base, err := fastestOf(1, *w.costBase, seed, false)
		if err != nil {
			return result{}, err
		}
		m["sim.scale_cost_ratio"] = (float64(untraced.runCPUNs) / events) / (float64(base.runCPUNs) / base.res.EventsProcessed)
	}
	return result{correct: failed == 0, attempted: 1, failed: failed, metrics: m}, nil
}

// directLoops times the workload's network model and arrival process on
// their own, outside any run: what one Drop+Delay sample and one Next cost.
// A workload on the constant network and the interval drip has neither, and
// reports nothing.
func directLoops(spec simSpec, seed uint64, m map[string]float64) error {
	cfg, err := spec.config(seed)
	if err != nil {
		return err
	}
	cfg = cfg.WithDefaults()
	model, err := cfg.Network.Model(cfg)
	if err != nil {
		return err
	}
	if model != nil {
		// The environment hands out the generator the host would draw from.
		env, err := simnet.NewEnv(simnet.EnvConfig{N: cfg.N, Seed: seed, TransferDelay: cfg.TransferDelay})
		if err != nil {
			return err
		}
		r := env.Rand(0)
		const samples = 2_000_000
		sum := 0.0
		start := nanotime()
		for i := 0; i < samples; i++ {
			from, to := protocol.NodeID(i%cfg.N), protocol.NodeID((i*7+1)%cfg.N)
			if !model.Drop(from, to, r) {
				sum += model.Delay(from, to, r)
			}
		}
		m["netmodel.sample_ns"] = float64(nanotime()-start) / samples
		loopSink = sum
	}
	arrivals, err := cfg.Workload.Arrivals(cfg, seed)
	if err != nil {
		return err
	}
	if arrivals != nil {
		const samples = 1_000_000
		sum := 0.0
		start := nanotime()
		for i := 0; i < samples; i++ {
			sum += arrivals.Next()
		}
		m["workload.next_ns"] = float64(nanotime()-start) / samples
		loopSink = sum
	}
	return nil
}

// loopSink keeps the direct loops' results alive.
var loopSink float64
