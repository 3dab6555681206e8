package live

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/transport"
)

// processNonce returns a value that is, with overwhelming probability,
// unique to this process: start time mixed with the PID. It seasons the
// default seed derivation so that distinct processes (and restarts of the
// same one) never share random schedules.
var processNonce = sync.OnceValue(func() uint64 {
	return rng.Derive(uint64(time.Now().UnixNano()), uint64(os.Getpid()))
})

// Health is a daemon's lifecycle state, exposed on the tokennode /healthz
// endpoint.
type Health int

const (
	// HealthStarting means the daemon exists but Start has not completed.
	HealthStarting Health = iota
	// HealthServing means the node is ticking and accepting messages.
	HealthServing
	// HealthDraining means the daemon announced its leave and is flushing
	// outbound queues before stopping.
	HealthDraining
	// HealthStopped means the run loop has exited.
	HealthStopped
)

func (h Health) String() string {
	switch h {
	case HealthStarting:
		return "starting"
	case HealthServing:
		return "serving"
	case HealthDraining:
		return "draining"
	case HealthStopped:
		return "stopped"
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// PeerAddr names one peer of a daemon: protocol identity plus TCP address.
type PeerAddr struct {
	ID   protocol.NodeID
	Addr string
}

// joinMsg announces a node to a peer. It doubles as the rejoin pull of
// §4.1.2: the receiver adds the sender to its peer table and, if it has a
// token, answers with its latest application message (RespondDirect) on its
// run loop.
type joinMsg struct {
	ID   int64  `json:"id"`
	Addr string `json:"addr"`
}

// leaveMsg announces a graceful departure: receivers drop the sender from
// their peer tables so the sampler stops wasting sends on it.
type leaveMsg struct {
	ID int64 `json:"id"`
}

// registerControl registers the daemon's membership control payloads in a
// transport registry. Every process of a tokennode deployment must share a
// registry with these (NewDaemon builds its own; tests that speak to a
// daemon over a raw endpoint call it explicitly).
func registerControl(r *transport.Registry) {
	transport.Register[joinMsg](r, "live.join")
	transport.Register[leaveMsg](r, "live.leave")
}

// peerTable is the daemon's dynamic membership view. It implements
// protocol.SharedPeerSelector with a uniform draw over the current members,
// so the protocol's SELECTPEER tracks join/leave without restarting the node.
type peerTable struct {
	mu    sync.Mutex
	ids   []protocol.NodeID
	index map[protocol.NodeID]int
}

func newPeerTable() *peerTable {
	return &peerTable{index: make(map[protocol.NodeID]int)}
}

// add inserts a peer, reporting whether it was new.
func (t *peerTable) add(id protocol.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.index[id]; ok {
		return false
	}
	t.index[id] = len(t.ids)
	t.ids = append(t.ids, id)
	return true
}

// remove deletes a peer, reporting whether it was present.
func (t *peerTable) remove(id protocol.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.index[id]
	if !ok {
		return false
	}
	last := len(t.ids) - 1
	t.ids[i] = t.ids[last]
	t.index[t.ids[i]] = i
	t.ids = t.ids[:last]
	delete(t.index, id)
	return true
}

// list snapshots the current membership.
func (t *peerTable) list() []protocol.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]protocol.NodeID, len(t.ids))
	copy(out, t.ids)
	return out
}

func (t *peerTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ids)
}

// SelectPeerOf implements protocol.SharedPeerSelector for the daemon's one
// node: a uniform draw over the current members.
func (t *peerTable) SelectPeerOf(_ int, r protocol.Rand) (protocol.NodeID, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ids) == 0 {
		return protocol.NoNode, false
	}
	return t.ids[r.Intn(len(t.ids))], true
}

// DaemonConfig assembles a tokennode daemon: one token account node behind a
// managed TCP endpoint with membership, drain and an ops snapshot.
type DaemonConfig struct {
	// ID is the node's identity (must be unique in the deployment).
	ID protocol.NodeID
	// Listen is the TCP listen address (e.g. "127.0.0.1:7001", ":0").
	Listen string
	// Seeds are the statically known peers. The daemon's own entry, if
	// present, is skipped, so every node of a fleet can share one peer list.
	Seeds []PeerAddr
	// Strategy is the token account strategy (required).
	Strategy core.Strategy
	// Application provides CreateMessage/UpdateState (required). It is only
	// ever invoked under the daemon's mutex, so it needs no internal locking.
	Application protocol.Application
	// Delta is the proactive period (required). The paper uses minutes; tests
	// use milliseconds.
	Delta time.Duration
	// InitialTokens is the starting balance (default 0).
	InitialTokens int
	// Seed pins the node's randomness. Zero means derive a seed from the node
	// ID and a process-unique nonce, so two daemons with the same ID — one
	// process restarted twice, or two processes started at once — follow
	// different random schedules, at the cost of reproducibility.
	Seed uint64
	// QueueSize bounds the queue between the transport's read goroutines and
	// the run loop (default: EnvConfig.QueueSize's). Messages arriving while
	// it is full are dropped, which the protocol tolerates.
	QueueSize int
}

// Daemon is a deployable token account node: a one-node runtime.Host over a
// wall-clock Env whose transport is a managed TCP endpoint — the assembly
// every experiment runs on, so the daemon ticks, receives, counts and audits
// the §3.4 bound exactly as a simulated node does. What the daemon adds is
// membership (static seeds plus join/leave announcements, in front of the
// run loop's inbox), graceful drain, and the health/latency state behind the
// tokennode ops endpoint. Create it with NewDaemon, start it with Start, stop
// it with Drain (graceful) or Close (immediate).
//
// One mutex serializes everything that touches the host: the run loop's
// callbacks (ticks, deliveries and join answers) and outside readers
// (WithHost).
type Daemon struct {
	cfg   DaemonConfig
	ep    *transport.TCPEndpoint
	env   *Env
	peers *peerTable

	mu      sync.Mutex
	host    *runtime.Host // nil until NewDaemon has assembled it
	health  Health
	done    chan struct{} // closed when the run loop exits; nil before Start
	rnd     protocol.Rand
	tickLat *metrics.Quantile
	tick    daemonTick
}

// NewDaemon builds the endpoint, the environment, the host and the
// membership table. The daemon does not tick or announce itself until Start.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Listen == "" {
		return nil, errors.New("live: DaemonConfig.Listen is empty")
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("live: DaemonConfig.Delta = %v, need > 0", cfg.Delta)
	}
	registry := transport.NewRegistry()
	registerControl(registry)
	ep, err := transport.NewTCPEndpoint(cfg.ID, cfg.Listen, registry)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		// Deriving from the ID alone would make every run of the same node
		// replay the identical schedule of "random" decisions, synchronizing
		// traffic across restarts.
		seed = rng.Derive(rng.Derive(0x6c697665, processNonce()), uint64(cfg.ID)) // "live"
	}
	d := &Daemon{
		cfg:     cfg,
		ep:      ep,
		peers:   newPeerTable(),
		health:  HealthStarting,
		rnd:     rng.New(rng.Derive(0x746f6b656e6e6f64, uint64(cfg.ID))), // "tokennod"
		tickLat: metrics.NewQuantile(),
	}
	d.tick.d = d
	// The endpoint is listening already and the environment installs its
	// handler through the filter, so from here on a join can arrive before
	// the host exists: it waits in the run loop's queue, which only Start
	// begins to drain.
	d.env, err = NewEnv(EnvConfig{
		N:            1,
		Seed:         seed,
		QueueSize:    cfg.QueueSize,
		NewTransport: func(int) (transport.Transport, error) { return controlFilter{ep, d}, nil },
	})
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	graph, err := overlay.NewFromOut(make([][]int, 1))
	if err != nil {
		_ = d.env.Close()
		return nil, err
	}
	// The host knows its node as slot 0; the deployment-wide ID only exists on
	// the wire, where the endpoint stamps it on outgoing frames and the peer
	// table supplies the destinations. Messages go out at once: the wire is
	// the only delay.
	host, err := runtime.NewHost(daemonEnv{d.env, d}, runtime.Config{
		Graph:         graph,
		Strategy:      cfg.Strategy,
		NewApp:        func(int) protocol.Application { return cfg.Application },
		Peers:         d.peers,
		Delta:         cfg.Delta.Seconds(),
		InitialTokens: cfg.InitialTokens,
		Audit:         true,
		Network:       netmodel.Constant{},
		// The rejoin pull of §4.1.2: a node returning from churn re-announces
		// itself to one random peer, whose answer is token-gated on its side.
		// SetOnline runs under d.mu (WithHost or a run-loop callback), which
		// guards d.rnd; the peer table's and the endpoint's locks come after.
		OnRejoin: func(*runtime.Host, int) {
			if target, ok := d.peers.SelectPeerOf(0, d.rnd); ok {
				_ = ep.SendPayload(target, protocol.BoxPayload(joinMsg{ID: int64(cfg.ID), Addr: ep.Addr()}))
			}
		},
	})
	if err != nil {
		_ = d.env.Close()
		return nil, err
	}
	d.host = host
	for _, p := range cfg.Seeds {
		if p.ID == cfg.ID {
			continue
		}
		ep.AddPeer(p.ID, p.Addr)
		d.peers.add(p.ID)
	}
	return d, nil
}

// controlFilter is the daemon's endpoint as the environment sees it: the
// membership changes of the control payloads happen on the transport's read
// goroutines, before anything reaches the run loop's inbox. A leave ends
// there; a join from another node goes on to the inbox, where the run loop
// answers its pull (see daemonEnv.SetDeliver).
type controlFilter struct {
	*transport.TCPEndpoint
	d *Daemon
}

var _ transport.Transport = controlFilter{}

func (f controlFilter) SetPayloadHandler(next transport.PayloadHandler) {
	f.TCPEndpoint.SetPayloadHandler(func(from protocol.NodeID, p protocol.Payload) {
		if p.Kind == protocol.KindBoxed {
			switch m := p.Box.(type) {
			case joinMsg:
				if !f.d.admit(m) {
					return
				}
			case leaveMsg:
				f.d.handleLeave(protocol.NodeID(m.ID))
				return
			}
		}
		next(from, p)
	})
}

// daemonEnv is the environment as the daemon's host sees it: it puts every
// run-loop callback under the daemon's mutex.
type daemonEnv struct {
	*Env
	d *Daemon
}

func (e daemonEnv) locked(fn func()) func() {
	return func() {
		e.d.mu.Lock()
		defer e.d.mu.Unlock()
		fn()
	}
}

func (e daemonEnv) At(t float64, fn func()) { e.Env.At(t, e.locked(fn)) }

func (e daemonEnv) Every(phase, interval float64, fn func() bool) {
	e.Env.Every(phase, interval, func() bool {
		e.d.mu.Lock()
		defer e.d.mu.Unlock()
		return fn()
	})
}

// SetDeliver wraps the host's delivery callback: a join is the rejoin pull
// of §4.1.2, which the daemon answers with its latest update if it has a
// token to spend and stays silent otherwise; everything else goes to the
// host.
func (e daemonEnv) SetDeliver(fn runtime.DeliverFunc) {
	d := e.d
	e.Env.SetDeliver(func(from, to protocol.NodeID, p protocol.Payload) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if m, ok := p.Box.(joinMsg); ok {
			if d.host.Online(0) {
				_ = d.host.Node(0).RespondDirect(protocol.NodeID(m.ID))
			}
			return
		}
		fn(from, to, p)
	})
}

// AtHook carries the host's proactive tick — the daemon's host has no trace,
// so it schedules no other hook — on the environment's hook lane, wrapped in
// the daemon's one daemonTick.
func (e daemonEnv) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	tick := &e.d.tick
	if tick.inner == nil {
		tick.inner = hook // the first call, during assembly
	} else if tick.inner != hook {
		panic("live: the daemon's host scheduled a second hook")
	}
	e.Env.AtHook(t, tick, node, word)
}

// daemonTick wraps the host's tick hook: it runs the tick under the daemon's
// mutex and feeds the tick-latency reservoir with the duration of each tick
// of an online node — application work, sends and the tick's re-arm.
type daemonTick struct {
	d     *Daemon
	inner runtime.Hook
}

func (k *daemonTick) RunHook(node int32, word uint64) {
	d := k.d
	d.mu.Lock()
	defer d.mu.Unlock()
	online := d.host.Online(0)
	start := time.Now()
	k.inner.RunHook(node, word)
	if online {
		d.tickLat.Add(time.Since(start).Seconds())
	}
}

// admit adds a (re)joining peer to the membership, reporting whether the
// join came from another node.
func (d *Daemon) admit(m joinMsg) bool {
	id := protocol.NodeID(m.ID)
	if id == d.cfg.ID {
		return false
	}
	d.ep.AddPeer(id, m.Addr)
	d.peers.add(id)
	return true
}

// handleLeave forgets a departing peer.
func (d *Daemon) handleLeave(id protocol.NodeID) {
	d.peers.remove(id)
	d.ep.RemovePeer(id)
}

// Start launches the run loop and announces the node to its seed peers.
// Cancelling the context stops the run loop; Drain or Close still have to
// follow to release the daemon. Start does nothing on a daemon that has
// already been started or stopped.
func (d *Daemon) Start(ctx context.Context) {
	d.mu.Lock()
	if d.health != HealthStarting {
		d.mu.Unlock()
		return
	}
	d.health = HealthServing
	done := make(chan struct{})
	d.done = done
	d.mu.Unlock()
	go func() {
		defer close(done)
		unwatch := context.AfterFunc(ctx, d.env.Stop)
		defer unwatch()
		_ = d.env.Run(math.Inf(1)) // fails only on a closed environment
	}()
	d.announce()
}

// announce sends the join message to every known peer.
func (d *Daemon) announce() {
	msg := protocol.BoxPayload(joinMsg{ID: int64(d.cfg.ID), Addr: d.ep.Addr()})
	for _, id := range d.peers.list() {
		_ = d.ep.SendPayload(id, msg)
	}
}

// Drain gracefully stops the daemon: it announces its leave to every peer,
// waits (bounded by the context) for the outbound queues to flush, then stops
// the run loop. The endpoint stays open so late answers still arrive until
// Close. Drain on a stopped daemon does nothing; it is safe before Start.
func (d *Daemon) Drain(ctx context.Context) {
	d.mu.Lock()
	if d.health == HealthStopped {
		d.mu.Unlock()
		return
	}
	d.health = HealthDraining
	d.mu.Unlock()
	msg := protocol.BoxPayload(leaveMsg{ID: int64(d.cfg.ID)})
	for _, id := range d.peers.list() {
		_ = d.ep.SendPayload(id, msg)
	}
	// Wait for the per-peer writers to flush the leave notices (and anything
	// queued before them).
	for ctx.Err() == nil && d.ep.Stats().QueueDepth > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Millisecond):
		}
	}
	d.stop()
}

// stop ends the run loop, waiting for it only if Start ever launched it.
func (d *Daemon) stop() {
	d.env.Stop()
	d.mu.Lock()
	d.health = HealthStopped
	done := d.done
	d.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Close stops the run loop if it is still running and closes the endpoint.
// It is safe at any point of the lifecycle — before Start, after Drain, a
// second time. For a graceful shutdown call Drain first.
func (d *Daemon) Close() error {
	d.stop()
	return d.env.Close()
}

// Health returns the daemon's lifecycle state.
func (d *Daemon) Health() Health {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.health
}

// WithHost runs f with exclusive access to the daemon's host, serialized
// against the run loop. Node 0 is the daemon's node: read h.Node(0) and the
// host's counters, inject local events into h.App(0), take the node offline
// and back with h.SetOffline(0)/h.SetOnline(0) (the churn of the paper's
// availability traces: an offline node neither ticks nor receives). f must
// not block, and must not call h.Run or close h.Env().
func (d *Daemon) WithHost(f func(h *runtime.Host)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f(d.host)
}

// TickLatencyQuantile returns the p-quantile of observed tick durations in
// seconds (NaN before the first tick).
func (d *Daemon) TickLatencyQuantile(p float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tickLat.Query(p)
}

// TickCount returns the number of ticks observed by the latency reservoir.
func (d *Daemon) TickCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tickLat.N()
}

// DroppedIncoming returns the number of incoming messages the daemon lost:
// messages that arrived while the run loop's inbox was full, plus messages
// delivered while the node was offline.
func (d *Daemon) DroppedIncoming() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.env.DroppedDeliveries() + d.host.MessagesDropped()
}

// QueueDepth returns the number of incoming messages waiting in the run
// loop's inbox.
func (d *Daemon) QueueDepth() int { return len(d.env.inbox) }

// Endpoint returns the managed TCP endpoint (address, transport stats).
func (d *Daemon) Endpoint() *transport.TCPEndpoint { return d.ep }

// NumPeers returns the current size of the membership table.
func (d *Daemon) NumPeers() int { return d.peers.size() }
