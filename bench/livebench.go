package main

import (
	"fmt"
	"slices"
	"sort"

	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/transport"
)

// liveSpec is one live workload: tokens frames circulate in a closed loop
// over a full mesh of nodes loopback TCP endpoints. The benchmark's delivery
// callback forwards each arriving token to a pseudo-random other node, so a
// slow stack receives less load; there is no timer pacing, and every number
// is set by the stack. One token measures hop latency, 256 measure
// throughput: 256 frames cannot overflow a 256-frame peer queue or the
// 4096-slot inbox, so any token that does not come back is a failure.
type liveSpec struct {
	nodes, tokens int
}

func (s liveSpec) links() int { return s.nodes * (s.nodes - 1) }

// A traced frame carries two stage stamps in its payload word: the low
// stampBits hold the SendPayload entry time (ns since clockBase, good for 18
// minutes), the high bits the link time in linkUnit steps, filled in by the
// receiving endpoint's handler. An untraced frame carries its send time in
// the low bits and nothing above.
const (
	stampBits = 40
	stampMask = 1<<stampBits - 1
	linkUnit  = 16 // ns
	linkMax   = 1<<(64-stampBits) - 1
)

// liveTrace is the state of a traced relay phase. The stage samples are only
// touched on the run-loop goroutine: the endpoint handlers, which run on
// reader goroutines, write nothing but the frame's own word.
type liveTrace struct {
	log *spanLog

	sendCalls, sendCallNs int64
	sendNsInCallback      int64     // SendPayload time inside the current delivery callback
	relayNs               int64     // delivery callbacks, SendPayload excluded
	link, inbox, hop      []float64 // µs per relayed frame
	queueDepthMax         int64
}

// maxStageSamples bounds the per-frame samples a traced phase keeps (24 bytes
// each); a 30 s flood stays below it.
const maxStageSamples = 4_000_000

// tracedTransport wraps one endpoint through EnvConfig.NewTransport. It has
// the capabilities live.Env looks for on a transport (typed send and typed
// receive), so frames take the same word-frame codec path as untraced ones.
type tracedTransport struct {
	inner *transport.TCPEndpoint
	t     *liveTrace
}

var (
	_ transport.Transport       = (*tracedTransport)(nil)
	_ transport.PayloadSender   = (*tracedTransport)(nil)
	_ transport.PayloadReceiver = (*tracedTransport)(nil)
)

func (w *tracedTransport) Send(to protocol.NodeID, payload any) error {
	return w.inner.Send(to, payload)
}
func (w *tracedTransport) SetHandler(h transport.Handler) { w.inner.SetHandler(h) }
func (w *tracedTransport) Close() error                   { return w.inner.Close() }

func (w *tracedTransport) SendPayload(to protocol.NodeID, p protocol.Payload) error {
	start := nanotime()
	p.Word = uint64(start) & stampMask
	err := w.inner.SendPayload(to, p)
	d := nanotime() - start
	w.t.sendCalls++
	w.t.sendCallNs += d
	w.t.sendNsInCallback += d
	return err
}

func (w *tracedTransport) SetPayloadHandler(h transport.PayloadHandler) {
	w.inner.SetPayloadHandler(func(from protocol.NodeID, p protocol.Payload) {
		link := (nanotime() - int64(p.Word&stampMask)) / linkUnit
		p.Word |= uint64(max(0, min(link, linkMax))) << stampBits
		h(from, p)
	})
}

// liveMesh is one assembled environment: endpoints, full mesh, live.Env, and
// one frame already delivered over every directed link.
type liveMesh struct {
	env   *live.Env
	eps   []*transport.TCPEndpoint
	relay *relay

	constructNs int64 // endpoints + mesh + live.NewEnv
	contactNs   int64 // NewEnv return → last first-contact delivery
}

func (m *liveMesh) setupNs() int64 { return m.constructNs + m.contactNs }

// relay is the benchmark's traffic generator, installed as the environment's
// DeliverFunc. It runs on the run-loop goroutine, which is the goroutine that
// called Env.Run, so its fields need no locking.
type relay struct {
	env   *live.Env
	rng   protocol.Rand
	nodes int
	trace *liveTrace

	contacts    int   // first-contact frames seen
	contactDone int64 // when the last one arrived

	relaying bool
	stopAt   int64 // tokens arriving from here on are parked, not forwarded
	hops     int64
	marks    []mark // a stamp every hopsPerSegment hops
	parked   int
	endNs    int64 // arrival of the first parked token
	endUsage usage
}

func (r *relay) deliver(from, to protocol.NodeID, p protocol.Payload) {
	now := nanotime()
	if !r.relaying {
		r.contacts++
		r.contactDone = now
		return
	}
	if t := r.trace; t != nil && len(t.hop) < maxStageSamples {
		entry := int64(p.Word & stampMask)
		link := int64(p.Word>>stampBits) * linkUnit
		t.hop = append(t.hop, float64(now-entry)/1e3)
		t.link = append(t.link, float64(link)/1e3)
		t.inbox = append(t.inbox, float64(now-entry-link)/1e3)
		if !t.log.full() {
			id := t.log.newID()
			t.log.add("hop", id, 0, entry, now)
			t.log.add("transport.link", t.log.newID(), id, entry, entry+link)
			t.log.add("live.inbox", t.log.newID(), id, entry+link, now)
		}
	}
	if now >= r.stopAt {
		if r.parked == 0 {
			r.endNs, r.endUsage = now, readUsage()
		}
		r.parked++
		return
	}
	r.hops++
	if r.hops&(hopsPerSegment-1) == 0 {
		r.marks = append(r.marks, mark{ns: now, cpuNs: readUsage().cpuNs})
	}
	r.forward(to, now)
	if t := r.trace; t != nil {
		t.relayNs += nanotime() - now - t.sendNsInCallback
		t.sendNsInCallback = 0
	}
}

// forward sends a token from the given node to a pseudo-random other node as
// a word frame (the 21-byte binary codec path) whose word is the send time.
func (r *relay) forward(from protocol.NodeID, now int64) {
	next := (int(from) + 1 + r.rng.Intn(r.nodes-1)) % r.nodes
	r.env.Send(from, protocol.NodeID(next), protocol.WordPayload(protocol.KindUpdateSeq, uint64(now)&stampMask))
}

// contactTimeout bounds the wait for the mesh to establish; loopback dials
// take milliseconds.
const contactTimeout = 5e9

// buildMesh assembles the environment the way live.NewTCPEnv does, but
// through the public live.NewEnv so that a traced pass can wrap each
// endpoint, then sends one frame over every directed link and runs the
// environment until all have arrived.
func buildMesh(spec liveSpec, seed uint64, trace *liveTrace) (*liveMesh, error) {
	start := nanotime()
	m := &liveMesh{eps: make([]*transport.TCPEndpoint, spec.nodes)}
	registry := transport.NewRegistry()
	for i := range m.eps {
		ep, err := transport.NewTCPEndpoint(protocol.NodeID(i), "127.0.0.1:0", registry)
		if err != nil {
			m.close()
			return nil, err
		}
		m.eps[i] = ep
	}
	for i, ep := range m.eps {
		for j, peer := range m.eps {
			if i != j {
				ep.AddPeer(protocol.NodeID(j), peer.Addr())
			}
		}
	}
	env, err := live.NewEnv(live.EnvConfig{
		N: spec.nodes, Seed: seed, TimeScale: 1, Latency: 0,
		NewTransport: func(i int) (transport.Transport, error) {
			if trace != nil {
				return &tracedTransport{inner: m.eps[i], t: trace}, nil
			}
			return m.eps[i], nil
		},
	})
	if err != nil {
		m.close()
		return nil, err
	}
	m.env = env
	built := nanotime()
	m.constructNs = built - start

	r := &relay{env: env, rng: env.Rand(0), nodes: spec.nodes, trace: trace}
	m.relay = r
	env.SetDeliver(r.deliver)
	env.At(0, func() {
		for i := 0; i < spec.nodes; i++ {
			for j := 0; j < spec.nodes; j++ {
				if i != j {
					env.Send(protocol.NodeID(i), protocol.NodeID(j), protocol.WordPayload(protocol.KindUpdateSeq, 0))
				}
			}
		}
	})
	for horizon := 0.0; r.contacts < spec.links(); {
		if nanotime()-built > contactTimeout {
			break // the missing links are counted as failures by the caller
		}
		horizon += 0.001
		if err := env.Run(horizon); err != nil {
			m.close()
			return nil, err
		}
	}
	m.contactNs = r.contactDone - built
	return m, nil
}

// close shuts the environment down (which closes the endpoints it was given)
// and any endpoint it never got hold of.
func (m *liveMesh) close() {
	if m.env != nil {
		_ = m.env.Close()
	}
	for _, ep := range m.eps {
		if ep != nil {
			_ = ep.Close() // idempotent
		}
	}
}

// hopsPerSegment cuts a relay phase into segments of equal work (a power of
// two): 16 384 hops are a quarter of a second of ping-pong and a tenth of a
// second of flood, long against the scheduler tick at which the kernel
// accounts the CPU time of threads other than the calling one.
const hopsPerSegment = 1 << 14

// phaseResult is one relay phase on an established mesh.
type phaseResult struct {
	hops, lost int64
	windowNs   int64 // injection → first parked token
	cpu        usage // CPU, sys CPU and context switches over the window
	marks      []mark
}

// perHop returns the wall and CPU time of one hop in nanoseconds, from the
// fastest segment of each: a segment averages 16 384 hops to random
// destinations, so segments differ by what the host added, and the host only
// ever adds time. A phase too short to hold a segment (the tests') reports
// the mean over its window.
func (ph phaseResult) perHop() (wallNs, cpuNs float64) {
	if len(ph.marks) < 2 {
		hops := float64(max(ph.hops, 1))
		return float64(ph.windowNs) / hops, float64(ph.cpu.cpuNs) / hops
	}
	var wall, cpu []int64
	for i := 1; i < len(ph.marks); i++ {
		wall = append(wall, ph.marks[i].ns-ph.marks[i-1].ns)
		cpu = append(cpu, ph.marks[i].cpuNs-ph.marks[i-1].cpuNs)
	}
	return float64(slices.Min(wall)) / hopsPerSegment, float64(slices.Min(cpu)) / hopsPerSegment
}

// drainTimeout bounds the wait, after forwarding stops, for the tokens still
// in flight; they arrive within a hop time unless the stack lost them.
const drainTimeout = 3.0

// runPhase circulates spec.tokens tokens for the given time, then stops
// forwarding and waits until every token has come to rest.
func (m *liveMesh) runPhase(spec liveSpec, seconds float64) (phaseResult, error) {
	r, env := m.relay, m.env
	r.relaying = true
	var (
		begin      int64
		beginUsage usage
	)
	env.At(env.Now(), func() {
		beginUsage = readUsage()
		begin = nanotime()
		r.stopAt = begin + int64(seconds*1e9)
		for k := 0; k < spec.tokens; k++ {
			r.forward(protocol.NodeID(k%spec.nodes), begin)
		}
	})
	if t := r.trace; t != nil {
		env.Every(0.01, 0.01, func() bool {
			depth := int64(0)
			for _, ep := range m.eps {
				depth += ep.Stats().QueueDepth
			}
			t.queueDepthMax = max(t.queueDepthMax, depth)
			return r.parked == 0
		})
	}
	horizon := env.Now() + seconds
	for limit := horizon + drainTimeout; r.parked < spec.tokens && horizon < limit; {
		horizon += 0.05
		if err := env.Run(horizon); err != nil {
			return phaseResult{}, err
		}
	}
	if r.parked == 0 {
		// Every token was lost before forwarding stopped.
		r.endNs, r.endUsage = nanotime(), readUsage()
	}
	return phaseResult{
		hops:     r.hops,
		lost:     int64(spec.tokens - r.parked),
		windowNs: r.endNs - begin,
		marks:    r.marks,
		cpu: usage{
			cpuNs: r.endUsage.cpuNs - beginUsage.cpuNs,
			sysNs: r.endUsage.sysNs - beginUsage.sysNs,
			ctxsw: r.endUsage.ctxsw - beginUsage.ctxsw,
		},
	}, nil
}

// transportTotals sums the endpoints' operational counters.
func (m *liveMesh) transportTotals() transport.Stats {
	var total transport.Stats
	for _, ep := range m.eps {
		s := ep.Stats()
		total.Dials += s.Dials
		total.Reconnects += s.Reconnects
		total.FramesSent += s.FramesSent
		total.BytesSent += s.BytesSent
		total.SendsShed += s.SendsShed
		total.SendErrors += s.SendErrors
	}
	return total
}

// setupsAround is how many extra times an end-to-end run assembles the mesh
// before its relay phase, and again after it. The set-up lasts ten
// milliseconds and the host only adds to it, so the fastest is reported;
// taking them at two moments 15 s apart keeps one noisy second from slowing
// them all.
const setupsAround = 40

// timeSetups assembles and closes the mesh count times and returns the set-up
// times.
func timeSetups(spec liveSpec, seed uint64, count int) ([]float64, error) {
	var times []float64
	for i := 0; i < count; i++ {
		mesh, err := buildMesh(spec, seed, nil)
		if err != nil {
			return nil, err
		}
		times = append(times, float64(mesh.setupNs()))
		mesh.close()
	}
	return times, nil
}

// liveOutcome folds a phase and its mesh into failure counts: a token that
// did not come back, a link that never carried its first frame, and any
// frame the stack itself counted as shed, failed or dropped.
func liveOutcome(spec liveSpec, m *liveMesh, ph phaseResult) (attempted, failed int64, correct bool) {
	stats := m.transportTotals()
	missingLinks := int64(spec.links() - m.relay.contacts)
	attempted = int64(spec.links()) + int64(spec.tokens) + ph.hops
	failed = ph.lost + missingLinks
	correct = failed == 0 && stats.SendsShed == 0 && stats.SendErrors == 0 && m.env.DroppedDeliveries() == 0 && ph.hops > 0
	if !correct {
		fmt.Printf("# live run not clean: %d tokens lost, %d links missing, %d sends shed, %d send errors, %d deliveries dropped, %d hops\n",
			ph.lost, missingLinks, stats.SendsShed, stats.SendErrors, m.env.DroppedDeliveries(), ph.hops)
	}
	return attempted, failed, correct
}

// runLiveEndToEnd is the untraced pass of a live workload.
func runLiveEndToEnd(w workloadDef, seed uint64, seconds float64) (result, error) {
	spec := *w.live
	setups, err := timeSetups(spec, seed, setupsAround)
	if err != nil {
		return result{}, err
	}
	mesh, err := buildMesh(spec, seed, nil)
	if err != nil {
		return result{}, err
	}
	defer mesh.close()
	setups = append(setups, float64(mesh.setupNs()))
	ph, err := mesh.runPhase(spec, seconds)
	if err != nil {
		return result{}, err
	}
	attempted, failed, correct := liveOutcome(spec, mesh, ph)
	mesh.close()
	after, err := timeSetups(spec, seed, setupsAround)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, after...)
	sort.Float64s(setups)
	fmt.Printf("# %d hops in %.2f s with %d token(s); set-up ms: fastest %.1f median %.1f slowest %.1f\n",
		ph.hops, float64(ph.windowNs)/1e9, spec.tokens, setups[0]/1e6, percentile(setups, 0.5)/1e6, setups[len(setups)-1]/1e6)
	hops := float64(max(ph.hops, 1))
	wallNs, cpuNs := ph.perHop()
	fmt.Printf("# mean over the window: %.0f hops/s, %.2f CPU us/hop; fastest of %d segments: %.0f hops/s, %.2f CPU us/hop\n",
		hops/float64(ph.windowNs)*1e9, float64(ph.cpu.cpuNs)/hops/1e3, max(len(ph.marks)-1, 0), 1e9/wallNs, cpuNs/1e3)
	return result{
		correct: correct, attempted: attempted, failed: failed,
		metrics: map[string]float64{
			"events_per_sec":   1e9 / wallNs,
			"cpu_us_per_event": cpuNs / 1e3,
			"setup_s":          setups[0] / 1e9,
			"peak_rss_mb":      readUsage().maxRSSMB,
		},
	}, nil
}

// runLiveTraced is the traced pass of a live workload: half the measuring
// time untraced, for the reference rate and the operating-system numbers,
// and half with every endpoint wrapped, for the stage times.
func runLiveTraced(spec liveSpec, seed uint64, seconds float64, log *spanLog) (result, error) {
	plain, err := buildMesh(spec, seed, nil)
	if err != nil {
		return result{}, err
	}
	ref, err := plain.runPhase(spec, seconds/2)
	plain.close()
	if err != nil {
		return result{}, err
	}

	t := &liveTrace{log: log}
	mesh, err := buildMesh(spec, seed, t)
	if err != nil {
		return result{}, err
	}
	defer mesh.close()
	ph, err := mesh.runPhase(spec, seconds/2)
	if err != nil {
		return result{}, err
	}
	attempted, failed, correct := liveOutcome(spec, mesh, ph)
	if ref.lost > 0 || ref.hops == 0 {
		correct = false
		failed += ref.lost
	}
	stats := mesh.transportTotals()
	sort.Float64s(t.hop)
	sort.Float64s(t.link)
	sort.Float64s(t.inbox)
	refHops, hops := float64(max(ref.hops, 1)), float64(max(ph.hops, 1))
	m := map[string]float64{
		"live.newenv_ms":             float64(mesh.constructNs) / 1e6,
		"transport.first_contact_ms": float64(mesh.contactNs) / 1e6,
		"live.hop_us_p50":            percentile(t.hop, 0.5),
		"live.hop_us_p99":            percentile(t.hop, 0.99),
		"transport.send_call_ns":     float64(t.sendCallNs) / float64(max(t.sendCalls, 1)),
		"transport.link_us_p50":      percentile(t.link, 0.5),
		"transport.link_us_p99":      percentile(t.link, 0.99),
		"live.inbox_us_p50":          percentile(t.inbox, 0.5),
		"live.inbox_us_p99":          percentile(t.inbox, 0.99),
		"live.relay_cb_ns":           float64(t.relayNs) / hops,
		"transport.frames_sent":      float64(stats.FramesSent),
		"transport.bytes_per_frame":  float64(stats.BytesSent) / float64(max(stats.FramesSent, 1)),
		"transport.sends_shed":       float64(stats.SendsShed),
		"transport.send_errors":      float64(stats.SendErrors),
		"transport.dials":            float64(stats.Dials),
		"transport.reconnects":       float64(stats.Reconnects),
		"transport.queue_depth_max":  float64(t.queueDepthMax),
		"live.dropped_deliveries":    float64(mesh.env.DroppedDeliveries()),
		"os.sys_cpu_share":           float64(ref.cpu.sysNs) / float64(max(ref.cpu.cpuNs, 1)),
		"os.ctxsw_per_hop":           float64(ref.cpu.ctxsw) / refHops,
		"trace.overhead_ratio":       (refHops / float64(ref.windowNs)) / (hops / float64(ph.windowNs)),
	}
	fmt.Printf("# %d stage samples; send_call + link p50 + inbox p50 = %.2f us against hop p50 %.2f us traced, %.2f us mean untraced\n",
		len(t.hop), m["transport.send_call_ns"]/1e3+m["transport.link_us_p50"]+m["live.inbox_us_p50"], m["live.hop_us_p50"],
		float64(ref.windowNs)/1e3/refHops*float64(spec.tokens))
	return result{correct: correct, attempted: attempted, failed: failed, metrics: m}, nil
}
