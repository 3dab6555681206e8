package main

import (
	"fmt"
	goruntime "runtime"
	"runtime/debug"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/simnet"
	"github.com/szte-dcs/tokenaccount/trace"
)

// The benchmark measures every layer from outside: it hands decorator
// drivers to the same public experiment.Run a user calls and stamps the calls
// that cross each boundary. An untraced rep carries only the stamps around
// set-up steps, one pair around Env.Run and, in an end-to-end rep, a clock and
// getrusage read at a few dozen of the metric samples inside it; the
// environment, the hooks and the per-node applications are the real, unwrapped
// values. A traced rep additionally wraps those, so the callbacks the engine
// dispatches can be counted and (one in 64) timed.

// auditNodes is how many of the first nodes a traced rep audits against the
// §3.4 rate bound, matching the experiment layer's own audit sample cap.
const auditNodes = 50

// repProbe collects what the decorators observe during one repetition.
type repProbe struct {
	// trace is nil for an untraced rep.
	trace *simTrace
	// markStride above 0 makes the probe stamp every markStride-th metric
	// sample, which cuts the run into segments (end-to-end reps only).
	markStride int
	samples    int
	// setupEnd is when the pipeline handed over to the run; the probe's own
	// collection follows, then runStart.
	setupEnd int64
	marks    []mark
	// memstats makes the probe read the Go heap statistics at the set-up and
	// run boundaries (outside the timed run, but they stop the world, so the
	// end-to-end reps leave it off).
	memstats bool

	repStart                               int64
	overlayNs, traceNs, newRunNs, newEnvNs int64
	newEnvEnd                              int64
	runStart, runEnd                       int64 // the Env.Run window
	usageAtRunStart, usageAtRunEnd         usage
	memAtRepStart, memAtRunStart           goruntime.MemStats
	memAtRunEnd                            goruntime.MemStats
	stats                                  protocol.Stats // summed over nodes at the end of the run
	dropped                                int64
	auditViolations                        int
	setupSpans                             []span // children of the rep span, traced reps only
}

// mark is one stamp inside Env.Run: wall clock and process CPU.
type mark struct{ ns, cpuNs int64 }

// stamp runs fn and returns how long it took; a traced rep also keeps the
// interval as a set-up span.
func (p *repProbe) stamp(name string, fn func()) int64 {
	start := nanotime()
	fn()
	end := nanotime()
	if p.trace != nil {
		p.setupSpans = append(p.setupSpans, span{name: name, start: start, end: end})
	}
	return end - start
}

// decorate returns cfg with its application, scenario and runtime drivers
// wrapped by the probe. Network and workload drivers stay as they are: the
// models they build are called from inside runtime.Host, which the probe
// brackets from both sides (deliver/hook above, Env.Send below).
func (p *repProbe) decorate(cfg experiment.Config) experiment.Config {
	cfg = cfg.WithDefaults()
	cfg.App = appProbe{inner: cfg.App, p: p}
	cfg.Scenario = scenarioProbe{inner: cfg.Scenario, p: p}
	cfg.Runtime = runtimeProbe{inner: cfg.Runtime, p: p}
	return cfg
}

// appProbe decorates an AppDriver. It implements every optional driver
// capability of the experiment package and forwards each to the inner driver
// when that has it; the fall-backs are the values the pipeline assumes for a
// driver without the capability, so a decorated run is bit-identical to an
// undecorated one.
type appProbe struct {
	inner experiment.AppDriver
	p     *repProbe
}

var (
	_ experiment.AppDriver       = appProbe{}
	_ experiment.ConfigValidator = appProbe{}
	_ experiment.ArrivalConsumer = appProbe{}
	_ experiment.MetricFinisher  = appProbe{}
	_ experiment.SummaryReporter = appProbe{}
	_ experiment.AppConfigurer   = appProbe{}
)

func (a appProbe) Name() string        { return a.inner.Name() }
func (a appProbe) String() string      { return experiment.DriverLabel(a.inner) }
func (a appProbe) MetricLabel() string { return a.inner.MetricLabel() }

func (a appProbe) BuildOverlay(cfg experiment.Config, seed uint64) (g *overlay.Graph, err error) {
	a.p.overlayNs = a.p.stamp("overlay.build", func() { g, err = a.inner.BuildOverlay(cfg, seed) })
	return g, err
}

func (a appProbe) NewRun(cfg experiment.Config, graph *overlay.Graph) (experiment.AppRun, error) {
	var (
		run experiment.AppRun
		err error
	)
	a.p.newRunNs = a.p.stamp("experiment.newrun", func() { run, err = a.inner.NewRun(cfg, graph) })
	if err != nil {
		return nil, err
	}
	r := &runProbe{inner: run, p: a.p}
	if t := a.p.trace; t != nil {
		r.apps = make([]tracedApp, cfg.N)
		if err := t.startAudit(cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (a appProbe) Validate(cfg experiment.Config) error {
	if v, ok := a.inner.(experiment.ConfigValidator); ok {
		return v.Validate(cfg)
	}
	return nil
}

func (a appProbe) ArrivalDriven() bool {
	c, ok := a.inner.(experiment.ArrivalConsumer)
	return ok && c.ArrivalDriven()
}

func (a appProbe) FinishMetric(cfg experiment.Config, avg *metrics.Series) *metrics.Series {
	if f, ok := a.inner.(experiment.MetricFinisher); ok {
		return f.FinishMetric(cfg, avg)
	}
	return avg
}

func (a appProbe) SummaryColumns() []string {
	if s, ok := a.inner.(experiment.SummaryReporter); ok {
		return s.SummaryColumns()
	}
	return nil
}

func (a appProbe) WithParams(args []string) (experiment.AppDriver, error) {
	c, ok := a.inner.(experiment.AppConfigurer)
	if !ok {
		return nil, fmt.Errorf("bench: application %q takes no parameters", a.inner.Name())
	}
	inner, err := c.WithParams(args)
	if err != nil {
		return nil, err
	}
	return appProbe{inner: inner, p: a.p}, nil
}

// runProbe decorates an AppRun. The pipeline calls Start last before Env.Run
// and Summarize first after it, so the two give the run window without a
// wrapper around the environment.
type runProbe struct {
	inner experiment.AppRun
	p     *repProbe
	apps  []tracedApp // traced reps only: one wrapper slot per node
}

var (
	_ experiment.AppRun        = (*runProbe)(nil)
	_ experiment.RunStarter    = (*runProbe)(nil)
	_ experiment.RejoinHandler = (*runProbe)(nil)
	_ experiment.RunSummarizer = (*runProbe)(nil)
)

func (r *runProbe) NewApp(node int) protocol.Application {
	app := r.inner.NewApp(node)
	if r.apps == nil || app == nil {
		return app
	}
	r.apps[node] = tracedApp{inner: app, t: r.p.trace}
	return &r.apps[node]
}

// Sample forwards the metric sample. The pipeline takes one per proactive
// period, which makes it the one place inside Env.Run the benchmark is called
// back at a regular grain, always at the same point of the simulated work: an
// end-to-end rep stamps some of them (see runSimEndToEnd).
func (r *runProbe) Sample(t float64, rc *experiment.RunContext) float64 {
	if p := r.p; p.markStride > 0 {
		if p.samples++; p.samples%p.markStride == 0 {
			p.marks = append(p.marks, mark{ns: nanotime(), cpuNs: readUsage().cpuNs})
		}
	}
	return r.inner.Sample(t, rc)
}

func (r *runProbe) Start(rc *experiment.RunContext) {
	if s, ok := r.inner.(experiment.RunStarter); ok {
		s.Start(rc)
	}
	p := r.p
	// Set-up ran with the collector off: its cycles there start at Go's 4 MB
	// minimum heap and fall differently every time (the same 10 MB build of
	// sim-churn-wan-5k took 13 to 21 ms, and left 25 or 35 MB resident), which
	// no choice among seven reps undoes. The run has the collector on, as a
	// user's has, and starts from a collection made here, outside both
	// timings: from a heap holding exactly what set-up built, so that the
	// cycles inside the run fall at the same allocations in every rep.
	p.setupEnd = nanotime()
	debug.SetGCPercent(gcPercent)
	goruntime.GC()
	if p.memstats {
		goruntime.ReadMemStats(&p.memAtRunStart)
	}
	p.usageAtRunStart = readUsage()
	p.runStart = nanotime()
}

func (r *runProbe) OnRejoin(h *runtime.Host, node int) {
	if rh, ok := r.inner.(experiment.RejoinHandler); ok {
		rh.OnRejoin(h, node)
	}
}

func (r *runProbe) Summarize(rc *experiment.RunContext) []float64 {
	p := r.p
	p.runEnd = nanotime()
	p.usageAtRunEnd = readUsage()
	if p.memstats {
		goruntime.ReadMemStats(&p.memAtRunEnd)
	}
	p.stats = rc.Host.TotalStats()
	p.dropped = rc.Host.MessagesDropped()
	if p.trace != nil {
		p.auditViolations = p.trace.violations()
	}
	if s, ok := r.inner.(experiment.RunSummarizer); ok {
		return s.Summarize(rc)
	}
	return nil
}

// scenarioProbe decorates a ScenarioDriver to time the trace build.
type scenarioProbe struct {
	inner experiment.ScenarioDriver
	p     *repProbe
}

func (s scenarioProbe) Name() string   { return s.inner.Name() }
func (s scenarioProbe) String() string { return experiment.DriverLabel(s.inner) }
func (s scenarioProbe) Churny() bool   { return s.inner.Churny() }

func (s scenarioProbe) BuildTrace(cfg experiment.Config, seed uint64) (tr *trace.Trace, err error) {
	s.p.traceNs = s.p.stamp("trace.build", func() { tr, err = s.inner.BuildTrace(cfg, seed) })
	return tr, err
}

// runtimeProbe decorates a RuntimeDriver to time NewEnv and, in a traced
// rep, to wrap the environment it returns.
type runtimeProbe struct {
	inner experiment.RuntimeDriver
	p     *repProbe
}

func (r runtimeProbe) Name() string   { return r.inner.Name() }
func (r runtimeProbe) String() string { return experiment.DriverLabel(r.inner) }

func (r runtimeProbe) NewEnv(cfg experiment.Config, seed uint64) (runtime.Env, error) {
	var (
		env runtime.Env
		err error
	)
	p := r.p
	p.newEnvNs = p.stamp("simnet.newenv", func() { env, err = r.inner.NewEnv(cfg, seed) })
	p.newEnvEnd = nanotime()
	if err != nil || p.trace == nil {
		return env, err
	}
	seq, ok := env.(*simnet.Env)
	if !ok {
		_ = env.Close()
		return nil, fmt.Errorf("bench: the traced pass wraps the sequential simulated environment only, got %T", env)
	}
	return &tracedEnv{Env: seq, t: p.trace}, nil
}

// layer names one boundary the traced pass times.
type layer int

const (
	layerDeliver layer = iota // Env → Host.deliver → Node.Receive (+ strategy, peer sampling, loss lottery)
	layerHook                 // Env → tick and churn hooks → Node.Tick / Host lifecycle
	layerTimer                // Env → closures of At/Schedule/Every: metric samples, injections, rejoin pulls
	layerSend                 // Host → Env.Send / SendDelayed: the event-queue push
	layerUpdate               // Node → Application.UpdateState
	layerCreate               // Node → Application.CreateMessage
	numLayers
)

var layerNames = [numLayers]string{
	"runtime.deliver", "runtime.hook", "experiment.timer", "simnet.send", "apps.update", "apps.create",
}

// layerStat aggregates one layer. calls is exact; the durations cover the
// timed subset and are scaled to all calls when a total is estimated.
type layerStat struct {
	calls      int64
	timed      int64
	ns         int64 // measured duration of timed calls, children included
	childNs    int64 // part of ns measured inside timed calls of child layers
	childTimed int64 // how many such child calls
}

// A timed call is measured between two clock reads, and a clock read costs
// about as much as the application callbacks being timed. With c the cost of
// one read, a measured interval is c longer than the work inside it (the tail
// of the first read and the head of the second), and every timed child adds a
// further 2c of reads to its parent. The estimates below take that out, so
// they describe the untraced code.

// perCall estimates the duration of one call, children included.
func (s layerStat) perCall(c float64) float64 {
	if s.timed == 0 {
		return 0
	}
	return max(0, float64(s.ns)/float64(s.timed)-c-2*c*float64(s.childTimed)/float64(s.timed))
}

// selfPerCall estimates perCall minus the part the children cover.
func (s layerStat) selfPerCall(c float64) float64 {
	if s.timed == 0 {
		return 0
	}
	return max(0, float64(s.ns-s.childNs)/float64(s.timed)-c-c*float64(s.childTimed)/float64(s.timed))
}

// One dispatched callback in 64 is timed: two clock reads cost about 80 ns
// here against a 250 ns event, so timing every one would measure the clock.
// The timed callbacks come in bursts of consecutive ones, because a lone
// timed callback among 63 untimed runs the timing path cold (instruction
// cache, branch predictor) and reads two to three times too long; inside a
// burst a clock read costs what clockCost measures, and can be taken out.
const (
	burstLen    = 2048
	burstPeriod = 64 * burstLen
)

// simTrace is the state of one traced simulator rep. Everything it sees runs
// on the goroutine driving the sequential engine.
type simTrace struct {
	log   *spanLog
	root  int32 // id of the simnet.run span, parent of every callback span
	stats [numLayers]layerStat

	// clockReads and clockNs measure the cost of a clock read where it is
	// paid: every timed callback opens with two reads back to back, and the
	// interval between them is one read (see layerStat). Measured in a tight
	// loop instead, a read looks a third cheaper than it is between real work.
	clockReads, clockNs int64

	tick uint64 // dispatched callbacks so far; picks the timed bursts

	// gaps and gapNs measure the engine itself: inside a burst, the interval
	// from the end of one timed callback to the start of the next is the
	// engine popping and dispatching one event, plus one clock read.
	prevEnd     int64 // end of the previous callback, 0 if that one was not timed
	gaps, gapNs int64
	active      bool   // a timed callback is executing
	curChildNs  int64  // what its timed children have measured so far
	children    []span // their spans, logged once the callback's end is stamped

	envelopes []*core.Envelope // indexed by node; the first auditNodes only
}

func newSimTrace(log *spanLog) *simTrace {
	return &simTrace{log: log, root: log.newID()}
}

// startAudit sets up §3.4 envelopes for the first nodes, fed from the
// Env.Send boundary (after the host's loss lotteries, so a message lost there
// is not seen).
func (t *simTrace) startAudit(cfg experiment.Config) error {
	strategy, err := cfg.Strategy.Build()
	if err != nil {
		return err
	}
	capacity := strategy.Capacity()
	if capacity == core.UnboundedCapacity {
		return nil
	}
	n := min(auditNodes, cfg.N)
	t.envelopes = make([]*core.Envelope, n)
	for i := range t.envelopes {
		t.envelopes[i] = core.NewEnvelope(cfg.Delta, capacity)
	}
	return nil
}

// violations counts audited nodes that broke the rate bound.
func (t *simTrace) violations() int {
	count := 0
	for _, e := range t.envelopes {
		if e.Verify() != nil {
			count++
		}
	}
	return count
}

// begin opens a dispatched callback. It returns the start time, or -1 when
// the callback is not timed.
func (t *simTrace) begin(l layer, always bool) int64 {
	t.stats[l].calls++
	if !always {
		t.tick++
		if t.tick&(burstPeriod-1) >= burstLen {
			t.prevEnd = 0
			return -1
		}
	}
	t.active = true
	t.curChildNs = 0
	t.children = t.children[:0]
	probe := nanotime()
	start := nanotime()
	t.clockReads++
	t.clockNs += start - probe
	if t.prevEnd != 0 {
		t.gaps++
		t.gapNs += probe - t.prevEnd
	}
	return start
}

// engineSelf estimates what the engine spends per event between callbacks:
// pop, dispatch and queue upkeep.
func (t *simTrace) engineSelf() float64 {
	if t.gaps == 0 {
		return 0
	}
	return max(0, float64(t.gapNs)/float64(t.gaps)-t.clockCost())
}

// clockCost is the measured cost of one clock read during the rep.
func (t *simTrace) clockCost() float64 {
	if t.clockReads == 0 {
		return 0
	}
	return float64(t.clockNs) / float64(t.clockReads)
}

func (t *simTrace) end(l layer, start int64) {
	if start < 0 {
		return
	}
	end := nanotime()
	s := &t.stats[l]
	s.timed++
	s.ns += end - start
	s.childNs += t.curChildNs
	s.childTimed += int64(len(t.children))
	t.active = false
	if !t.log.full() {
		id := t.log.newID()
		t.log.add(layerNames[l], id, t.root, start, end)
		for _, c := range t.children {
			t.log.add(c.name, t.log.newID(), id, c.start, c.end)
		}
	}
	t.prevEnd = nanotime() // after the bookkeeping, so the gap to the next callback is the engine's
}

// beginChild opens a call a callback makes into a lower layer; it is timed
// exactly when the callback around it is.
func (t *simTrace) beginChild(l layer) int64 {
	t.stats[l].calls++
	if !t.active {
		return -1
	}
	return nanotime()
}

func (t *simTrace) endChild(l layer, start int64) {
	if start < 0 {
		return
	}
	end := nanotime()
	s := &t.stats[l]
	s.timed++
	s.ns += end - start
	t.curChildNs += end - start
	t.children = append(t.children, span{name: layerNames[l], start: start, end: end})
}

// tracedEnv wraps the environment of a traced rep. It embeds the concrete
// sequential environment, not the runtime.Env interface: the host asks
// Online some forty times per message sent (peer sampling), and a second
// interface dispatch on that path alone made a traced run 25 % slower than an
// untraced one. The embedded value serves every method that is not a layer
// boundary (clock, randomness, lifecycle, Run, Close) and every optional
// capability runtime.Host and the experiment pipeline look for (DelayedSender,
// HookScheduler, StreamSeeder, Processed), so the host takes the same code
// paths — typed hook events, slab generators, model-sampled delays — with and
// without tracing.
type tracedEnv struct {
	*simnet.Env
	t     *simTrace
	hooks []tracedHook
}

var (
	_ runtime.Env           = (*tracedEnv)(nil)
	_ runtime.DelayedSender = (*tracedEnv)(nil)
	_ runtime.HookScheduler = (*tracedEnv)(nil)
	_ runtime.StreamSeeder  = (*tracedEnv)(nil)
)

func (e *tracedEnv) timed(fn func()) func() {
	return func() {
		start := e.t.begin(layerTimer, true)
		fn()
		e.t.end(layerTimer, start)
	}
}

func (e *tracedEnv) At(t float64, fn func())           { e.Env.At(t, e.timed(fn)) }
func (e *tracedEnv) Schedule(delay float64, fn func()) { e.Env.Schedule(delay, e.timed(fn)) }

func (e *tracedEnv) Every(phase, interval float64, fn func() bool) {
	e.Env.Every(phase, interval, func() bool {
		start := e.t.begin(layerTimer, true)
		again := fn()
		e.t.end(layerTimer, start)
		return again
	})
}

func (e *tracedEnv) audit(from protocol.NodeID) {
	if int(from) < len(e.t.envelopes) {
		e.t.envelopes[from].Record(e.Env.Now())
	}
}

func (e *tracedEnv) Send(from, to protocol.NodeID, payload protocol.Payload) {
	e.audit(from)
	start := e.t.beginChild(layerSend)
	e.Env.Send(from, to, payload)
	e.t.endChild(layerSend, start)
}

func (e *tracedEnv) SendDelayed(from, to protocol.NodeID, payload protocol.Payload, delay float64) {
	e.audit(from)
	start := e.t.beginChild(layerSend)
	e.Env.SendDelayed(from, to, payload, delay)
	e.t.endChild(layerSend, start)
}

func (e *tracedEnv) SetDeliver(fn runtime.DeliverFunc) {
	e.Env.SetDeliver(func(from, to protocol.NodeID, payload protocol.Payload) {
		start := e.t.begin(layerDeliver, false)
		fn(from, to, payload)
		e.t.end(layerDeliver, start)
	})
}

// AtHook wraps each distinct hook once: environments may key state on hook
// identity, so the same inner hook must always map to the same wrapper. A
// host registers two hooks (tick, churn), so a slice scan is the whole table;
// it is sized up front because wrapper addresses must stay valid.
func (e *tracedEnv) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	for i := range e.hooks {
		if e.hooks[i].inner == hook {
			e.Env.AtHook(t, &e.hooks[i], node, word)
			return
		}
	}
	if e.hooks == nil {
		e.hooks = make([]tracedHook, 0, 8)
	}
	if len(e.hooks) == cap(e.hooks) {
		panic("bench: more distinct runtime hooks than the traced environment has wrapper slots for")
	}
	e.hooks = append(e.hooks, tracedHook{inner: hook, t: e.t})
	e.Env.AtHook(t, &e.hooks[len(e.hooks)-1], node, word)
}

type tracedHook struct {
	inner runtime.Hook
	t     *simTrace
}

func (h *tracedHook) RunHook(node int32, word uint64) {
	start := h.t.begin(layerHook, false)
	h.inner.RunHook(node, word)
	h.t.end(layerHook, start)
}

// tracedApp wraps one node's application in a traced rep.
type tracedApp struct {
	inner protocol.Application
	t     *simTrace
}

func (a *tracedApp) CreateMessage() protocol.Payload {
	start := a.t.beginChild(layerCreate)
	p := a.inner.CreateMessage()
	a.t.endChild(layerCreate, start)
	return p
}

func (a *tracedApp) UpdateState(from protocol.NodeID, payload protocol.Payload) bool {
	start := a.t.beginChild(layerUpdate)
	useful := a.inner.UpdateState(from, payload)
	a.t.endChild(layerUpdate, start)
	return useful
}
