package live

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/transport"
)

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// within fails the test if f has not returned after a generous second: the
// lifecycle calls it guards must never block.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s blocked", what)
	}
}

func daemonConfig(id protocol.NodeID, seeds []PeerAddr) DaemonConfig {
	return DaemonConfig{
		ID:            id,
		Listen:        "127.0.0.1:0",
		Seeds:         seeds,
		Strategy:      core.PurelyProactive{},
		Application:   pushgossip.New(),
		Delta:         10 * time.Millisecond,
		InitialTokens: 5,
		Seed:          uint64(id) + 1,
	}
}

func daemonSeq(d *Daemon) int64 {
	var seq int64
	d.WithHost(func(h *runtime.Host) { seq = h.App(0).(*pushgossip.State).Seq() })
	return seq
}

func daemonInject(d *Daemon, seq int64) {
	d.WithHost(func(h *runtime.Host) { h.App(0).(*pushgossip.State).Inject(seq) })
}

func daemonStats(d *Daemon) protocol.Stats {
	var st protocol.Stats
	d.WithHost(func(h *runtime.Host) { st = h.Node(0).Stats() })
	return st
}

// assertNoViolations checks the daemon's always-on §3.4 audit: the exact
// bound ⌈t/Δ⌉ + max(C, a₀) on the wall clock, no jitter allowance.
func assertNoViolations(t *testing.T, d *Daemon) {
	t.Helper()
	d.WithHost(func(h *runtime.Host) {
		for _, v := range h.AuditViolations() {
			t.Errorf("daemon %d: %v", d.cfg.ID, v)
		}
	})
}

// rawPeer is a bare endpoint speaking to daemons from outside: it shares the
// control payloads and is known to the daemon under the given id.
func rawPeer(t *testing.T, id protocol.NodeID) *transport.TCPEndpoint {
	t.Helper()
	registry := transport.NewRegistry()
	registerControl(registry)
	ep, err := transport.NewTCPEndpoint(id, "127.0.0.1:0", registry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	return ep
}

// startFleet boots n daemons where each one only seeds the previously built
// ones, and waits until the join announcements have completed the membership.
func startFleet(t *testing.T, ctx context.Context, n int, configure func(*DaemonConfig)) []*Daemon {
	t.Helper()
	daemons := make([]*Daemon, 0, n)
	var seeds []PeerAddr
	for i := 0; i < n; i++ {
		cfg := daemonConfig(protocol.NodeID(i), seeds)
		if configure != nil {
			configure(&cfg)
		}
		d, err := NewDaemon(cfg)
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
		t.Cleanup(func() { _ = d.Close() })
		if got := d.Health(); got != HealthStarting {
			t.Fatalf("health before Start = %v, want starting", got)
		}
		daemons = append(daemons, d)
		seeds = append(seeds, PeerAddr{ID: protocol.NodeID(i), Addr: d.Endpoint().Addr()})
	}
	// Newest first: every daemon but the oldest has seeds, and the oldest has
	// heard the others' joins by the time it starts. No node ever ticks with
	// an empty peer table — a round that finds no peer banks its token even
	// above C (protocol.Node.Tick), which the audits below would report as
	// the over-budget burst it later becomes.
	for i := n - 1; i >= 0; i-- {
		d := daemons[i]
		waitUntil(t, 5*time.Second, "a first peer", func() bool { return d.NumPeers() > 0 })
		d.Start(ctx)
		if got := d.Health(); got != HealthServing {
			t.Fatalf("health after Start = %v, want serving", got)
		}
	}
	// Joins flow only "new → old" as seeds, so the old nodes learn the new
	// ones from the announcements.
	waitUntil(t, 5*time.Second, "full membership", func() bool {
		for _, d := range daemons {
			if d.NumPeers() != n-1 {
				return false
			}
		}
		return true
	})
	return daemons
}

// TestDaemonClusterConvergence boots a small fleet: join announcements must
// complete the membership, push gossip must spread an injected update to
// every node, a drained daemon must disappear from the others' peer tables,
// and no node may have broken the rate bound on the way.
func TestDaemonClusterConvergence(t *testing.T) {
	const n = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	daemons := startFleet(t, ctx, n, nil)

	daemonInject(daemons[0], 1)
	waitUntil(t, 10*time.Second, "gossip convergence", func() bool {
		for _, d := range daemons {
			if daemonSeq(d) < 1 {
				return false
			}
		}
		return true
	})

	waitUntil(t, 5*time.Second, "tick latency samples", func() bool {
		return daemons[0].TickCount() > 0
	})
	if q := daemons[0].TickLatencyQuantile(0.5); !(q >= 0) {
		t.Errorf("median tick latency = %v, want a finite value ≥ 0", q)
	}

	// Graceful drain: the fleet forgets the departed node.
	drainCtx, drainCancel := context.WithTimeout(ctx, 5*time.Second)
	defer drainCancel()
	daemons[n-1].Drain(drainCtx)
	if got := daemons[n-1].Health(); got != HealthStopped {
		t.Fatalf("health after Drain = %v, want stopped", got)
	}
	waitUntil(t, 5*time.Second, "leave to propagate", func() bool {
		for _, d := range daemons[:n-1] {
			if d.NumPeers() != n-2 {
				return false
			}
		}
		return true
	})
	for _, d := range daemons {
		assertNoViolations(t, d)
		var bytes int64
		d.WithHost(func(h *runtime.Host) { bytes = h.BytesSent() })
		if bytes == 0 {
			t.Errorf("daemon %d counted no bytes sent", d.cfg.ID)
		}
	}
}

// TestDaemonRejoinPull pins the §4.1.2 rejoin semantics: a node coming back
// from churn re-announces itself, and the contacted neighbor answers with its
// latest update, token-gated. Δ is huge so nothing else moves.
func TestDaemonRejoinPull(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfgA := daemonConfig(0, nil)
	cfgA.Delta = time.Hour
	a, err := NewDaemon(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cfgB := daemonConfig(1, []PeerAddr{{ID: 0, Addr: a.Endpoint().Addr()}})
	cfgB.Delta = time.Hour
	b, err := NewDaemon(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.Start(ctx)
	b.Start(ctx)
	waitUntil(t, 5*time.Second, "A to learn B from its join", func() bool {
		return a.NumPeers() == 1
	})

	// A moves ahead while B is offline (churn).
	b.WithHost(func(h *runtime.Host) { h.SetOffline(0) })
	daemonInject(a, 7)

	b.WithHost(func(h *runtime.Host) { h.SetOnline(0) })
	waitUntil(t, 5*time.Second, "B to pull the latest update", func() bool {
		return daemonSeq(b) == 7
	})

	// The answer was a reactive, token-gated send on A's side: two of them
	// (B's start-up join, B's rejoin) milliseconds apart with C = 0, covered
	// by the five initial tokens.
	if st := daemonStats(a); st.ReactiveSent == 0 {
		t.Error("rejoin answer did not count as a reactive send")
	}
	assertNoViolations(t, a)
}

// TestDaemonValidation covers constructor failure paths.
func TestDaemonValidation(t *testing.T) {
	broken := map[string]func(c *DaemonConfig){
		"empty listen address": func(c *DaemonConfig) { c.Listen = "" },
		"bad listen address":   func(c *DaemonConfig) { c.Listen = "256.0.0.1:99999" },
		"nil strategy":         func(c *DaemonConfig) { c.Strategy = nil },
		"nil application":      func(c *DaemonConfig) { c.Application = nil },
		"zero delta":           func(c *DaemonConfig) { c.Delta = 0 },
		"negative tokens":      func(c *DaemonConfig) { c.InitialTokens = -1 },
		"negative queue size":  func(c *DaemonConfig) { c.QueueSize = -1 },
	}
	for name, mutate := range broken {
		cfg := daemonConfig(0, nil)
		mutate(&cfg)
		if d, err := NewDaemon(cfg); err == nil {
			d.Close()
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDaemonStopNeverBlocks walks Close and Drain through every position of
// the lifecycle. Close before Start used to wait forever for a run loop that
// never ran.
func TestDaemonStopNeverBlocks(t *testing.T) {
	drain := func(d *Daemon) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		d.Drain(ctx)
	}
	closeIt := func(d *Daemon) { _ = d.Close() }
	start := func(d *Daemon) { d.Start(context.Background()) }
	startCancelled := func(d *Daemon) {
		ctx, cancel := context.WithCancel(context.Background())
		d.Start(ctx)
		cancel()
	}
	tests := []struct {
		name  string
		steps []func(*Daemon)
	}{
		{"close before start", []func(*Daemon){closeIt}},
		{"drain before start", []func(*Daemon){drain, closeIt}},
		{"close after start", []func(*Daemon){start, closeIt}},
		{"drain after start", []func(*Daemon){start, drain, closeIt}},
		{"close twice", []func(*Daemon){start, closeIt, closeIt}},
		{"drain twice", []func(*Daemon){start, drain, drain, closeIt}},
		{"drain after close", []func(*Daemon){start, closeIt, drain}},
		{"close after context cancel", []func(*Daemon){startCancelled, closeIt}},
		{"drain after context cancel", []func(*Daemon){startCancelled, drain, closeIt}},
		{"start after close", []func(*Daemon){closeIt, start, closeIt}},
		{"start twice", []func(*Daemon){start, start, closeIt}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDaemon(daemonConfig(0, nil))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for i, step := range tc.steps {
				within(t, tc.name, func() { step(d) })
				if t.Failed() {
					t.Fatalf("step %d", i)
				}
			}
			if got := d.Health(); got != HealthStopped {
				t.Errorf("health = %v at the end, want stopped", got)
			}
		})
	}
}

// TestDaemonStopsOnContextCancel checks that cancelling the start context
// stops the node: no further round is executed.
func TestDaemonStopsOnContextCancel(t *testing.T) {
	cfg := daemonConfig(0, nil)
	cfg.Delta = time.Millisecond
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	d.Start(ctx)
	waitUntil(t, 5*time.Second, "the first rounds", func() bool { return daemonStats(d).Rounds > 2 })
	cancel()
	d.mu.Lock()
	done := d.done
	d.mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("run loop did not stop on context cancellation")
	}
	frozen := daemonStats(d).Rounds
	time.Sleep(20 * time.Millisecond)
	if got := daemonStats(d).Rounds; got != frozen {
		t.Errorf("%d rounds executed after the context was cancelled", got-frozen)
	}
}

// TestDaemonOfflineNode exercises the lifecycle API on a running daemon: a
// node taken offline stops executing proactive rounds and loses its incoming
// messages, and resumes both once it is brought back online.
func TestDaemonOfflineNode(t *testing.T) {
	peer := rawPeer(t, 1)
	cfg := daemonConfig(0, []PeerAddr{{ID: 1, Addr: peer.Addr()}})
	cfg.Strategy = core.MustGeneralized(1, 5)
	cfg.Delta = 2 * time.Millisecond
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	peer.AddPeer(0, d.Endpoint().Addr())
	d.Start(context.Background())
	var seq int64
	send := func() {
		seq++
		_ = peer.SendPayload(0, pushgossip.Update{Seq: seq}.Payload())
	}

	waitUntil(t, 5*time.Second, "rounds and deliveries while online", func() bool {
		send()
		st := daemonStats(d)
		return st.Rounds > 2 && st.Received > 0
	})
	d.WithHost(func(h *runtime.Host) {
		if !h.Online(0) {
			t.Error("node should start online")
		}
		h.SetOffline(0)
		if h.Online(0) {
			t.Error("SetOffline had no effect")
		}
	})
	// WithHost is serialized against the run loop: no tick is in flight.
	frozen := daemonStats(d)
	droppedBefore := d.DroppedIncoming()
	waitUntil(t, 5*time.Second, "traffic for the offline node to be dropped", func() bool {
		send()
		return d.DroppedIncoming() > droppedBefore
	})
	time.Sleep(10 * cfg.Delta)
	if got := daemonStats(d); got.Rounds != frozen.Rounds || got.Received != frozen.Received {
		t.Errorf("offline node moved from %+v to %+v", frozen, got)
	}

	d.WithHost(func(h *runtime.Host) { h.SetOnline(0) })
	waitUntil(t, 5*time.Second, "rounds and deliveries to resume", func() bool {
		send()
		st := daemonStats(d)
		return st.Rounds > frozen.Rounds && st.Received > frozen.Received
	})
	assertNoViolations(t, d)
}

// TestDaemonOnlineFlipsUnderLoad hammers the lifecycle API from the test
// goroutine while a fleet gossips, as a race-detector workout.
func TestDaemonOnlineFlipsUnderLoad(t *testing.T) {
	const n = 4
	daemons := startFleet(t, context.Background(), n, func(c *DaemonConfig) {
		c.Strategy = core.MustRandomized(1, 5)
		c.Delta = time.Millisecond
	})
	for round := 0; round < 50; round++ {
		d := daemons[round%n]
		d.WithHost(func(h *runtime.Host) { h.SetOffline(0) })
		daemonInject(daemons[(round+1)%n], int64(round+1))
		time.Sleep(500 * time.Microsecond)
		d.WithHost(func(h *runtime.Host) { h.SetOnline(0) })
	}
	for _, d := range daemons {
		d.WithHost(func(h *runtime.Host) {
			if !h.Online(0) {
				t.Errorf("daemon %d left offline", d.cfg.ID)
			}
		})
		assertNoViolations(t, d)
	}
}

// TestDaemonRateBoundUnderFlood floods one daemon with fresh updates through
// a raw endpoint, so every delivery is useful and the node spends whatever it
// has: the audit must read zero violations of the exact bound — no slack for
// timer jitter — while the node did send.
func TestDaemonRateBoundUnderFlood(t *testing.T) {
	peer := rawPeer(t, 1)
	cfg := daemonConfig(0, []PeerAddr{{ID: 1, Addr: peer.Addr()}})
	cfg.Strategy = core.MustGeneralized(1, 5)
	cfg.Delta = 5 * time.Millisecond
	cfg.InitialTokens = 0
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	peer.AddPeer(0, d.Endpoint().Addr())
	d.Start(context.Background())

	for i := 0; i < 400; i++ {
		_ = peer.SendPayload(0, pushgossip.Update{Seq: int64(i + 1)}.Payload())
		time.Sleep(time.Millisecond)
	}
	_ = d.Close()

	st := daemonStats(d)
	if st.TotalSent() == 0 || st.ReactiveSent == 0 {
		t.Errorf("node sent nothing despite useful incoming traffic: %+v", st)
	}
	assertNoViolations(t, d)
}

// TestDaemonsSaturatedHoldRateBound is the §3.4 guarantee where it is
// hardest to keep: eight daemons at Δ = 2 ms, a fresh update injected every
// few hundred microseconds so that every node spends each token as it is
// granted, for well over a second. Every node's audit must read zero
// violations of ⌈t/Δ⌉ + C on the wall clock.
func TestDaemonsSaturatedHoldRateBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs for over a second")
	}
	const n = 8
	daemons := startFleet(t, context.Background(), n, func(c *DaemonConfig) {
		c.Strategy = core.MustGeneralized(1, 5)
		c.Delta = 2 * time.Millisecond
		c.InitialTokens = 0
	})
	var base protocol.Stats
	for _, d := range daemons {
		st := daemonStats(d)
		base.Rounds += st.Rounds
		base.ProactiveSent += st.ProactiveSent
		base.ReactiveSent += st.ReactiveSent
	}
	start := time.Now()
	for seq := int64(1); time.Since(start) < 1200*time.Millisecond; seq++ {
		daemonInject(daemons[seq%n], seq)
		time.Sleep(300 * time.Microsecond)
	}
	var total protocol.Stats
	for _, d := range daemons {
		st := daemonStats(d)
		total.Rounds += st.Rounds
		total.ProactiveSent += st.ProactiveSent
		total.ReactiveSent += st.ReactiveSent
		assertNoViolations(t, d)
	}
	rounds, sends := total.Rounds-base.Rounds, total.TotalSent()-base.TotalSent()
	rate := float64(sends) / float64(rounds)
	t.Logf("%d rounds, %.2f sends per node per round", rounds, rate)
	if rounds < n*100 {
		t.Errorf("only %d rounds in the window", rounds)
	}
	if rate < 0.7 {
		t.Errorf("send rate %.2f per round: the fleet was not saturated at the bound", rate)
	}
	// One send per round, plus at most the C tokens each node held when the
	// window opened.
	if sends > rounds+n*5 {
		t.Errorf("%d sends in %d rounds", sends, rounds)
	}
}

// TestDaemonJoinBeforeHostIsAssembled covers the construction window: the
// endpoint listens before NewDaemon has built the host, so a join can arrive
// on a daemon without one. It must be admitted to the membership at once and
// get no answer, not crash the process: the join waits in the run loop's
// queue, which nothing drains before Start.
func TestDaemonJoinBeforeHostIsAssembled(t *testing.T) {
	d, err := NewDaemon(daemonConfig(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.mu.Lock()
	host := d.host
	d.host = nil // as NewDaemon leaves it until runtime.NewHost has returned
	d.mu.Unlock()

	peer := rawPeer(t, 1)
	peer.AddPeer(0, d.Endpoint().Addr())
	if err := peer.SendPayload(0, protocol.BoxPayload(joinMsg{ID: 1, Addr: peer.Addr()})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the join to be admitted", func() bool { return d.NumPeers() == 1 })

	d.mu.Lock()
	d.host = host
	d.mu.Unlock()
	if st := daemonStats(d); st.ReactiveSent != 0 {
		t.Errorf("a daemon without a host answered a join: %+v", st)
	}
}

// TestDaemonAnswersJoinOnRunLoop pins where a join is handled: the read
// goroutine admits the peer at once, and the run loop answers its rejoin
// pull, so a daemon that has not been started answers only after Start.
func TestDaemonAnswersJoinOnRunLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := daemonConfig(0, nil)
	cfg.Delta = time.Hour // no proactive send during the test
	cfg.InitialTokens = 1
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	answers := make(chan protocol.Payload, 4)
	peer := rawPeer(t, 1)
	peer.SetPayloadHandler(func(_ protocol.NodeID, p protocol.Payload) {
		if p.Kind != protocol.KindBoxed { // not the daemon's own join
			answers <- p
		}
	})
	peer.AddPeer(0, d.Endpoint().Addr())
	if err := peer.SendPayload(0, protocol.BoxPayload(joinMsg{ID: 1, Addr: peer.Addr()})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the join to be admitted", func() bool { return d.NumPeers() == 1 })
	select {
	case p := <-answers:
		t.Fatalf("a daemon that was not started answered the join with %+v", p)
	case <-time.After(100 * time.Millisecond):
	}

	d.Start(ctx)
	select {
	case <-answers:
	case <-time.After(5 * time.Second):
		t.Fatal("the started daemon did not answer the join")
	}
	if st := daemonStats(d); st.ReactiveSent != 1 {
		t.Errorf("%d reactive sends, want the one join answer", st.ReactiveSent)
	}
}

// TestDaemonEveryRunsUnderLock pins that a periodic callback scheduled
// through the daemon's host runs under Daemon.mu, like its At callbacks and
// ticks, so it cannot race a WithHost reader.
func TestDaemonEveryRunsUnderLock(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := daemonConfig(0, nil)
	cfg.Delta = time.Hour // no tick during the test
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const want = 20
	var runs, unlocked atomic.Int32
	d.WithHost(func(h *runtime.Host) {
		h.Env().Every(0, 0.001, func() bool {
			if d.mu.TryLock() {
				d.mu.Unlock()
				unlocked.Add(1)
			}
			return runs.Add(1) < want
		})
	})
	d.Start(ctx)
	waitUntil(t, 5*time.Second, "the periodic callbacks", func() bool { return runs.Load() == want })
	if n := unlocked.Load(); n > 0 {
		t.Errorf("%d of %d periodic callbacks ran without the daemon's lock", n, want)
	}
}

// TestDaemonTickRearmAllocs pins the daemon's tick on the environment's hook
// lane: once warmed up, a tick of the daemon's node — the daemon's lock, the
// host's tick, the latency sample and the re-arm through the daemon's one
// wrapper hook — allocates nothing. The daemon is not started, so the re-armed
// ticks stay pending an hour ahead and nothing else runs meanwhile.
func TestDaemonTickRearmAllocs(t *testing.T) {
	const calls = 1000
	cfg := daemonConfig(0, nil)
	cfg.Delta = time.Hour
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 2*calls; i++ {
		d.tick.RunHook(0, 0)
	}
	if allocs := testing.AllocsPerRun(calls, func() { d.tick.RunHook(0, 0) }); allocs != 0 {
		t.Errorf("a daemon tick allocates %.2f times, want 0", allocs)
	}
	if n := d.TickCount(); n < 3*calls {
		t.Errorf("%d ticks timed, want ≥ %d: the wrapper did not run the tick", n, 3*calls)
	}
}
