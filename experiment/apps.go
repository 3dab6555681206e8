package experiment

import (
	"fmt"
	"strings"

	"github.com/szte-dcs/tokenaccount/apps/gossiplearning"
	"github.com/szte-dcs/tokenaccount/apps/poweriter"
	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
)

// The demonstrator applications of §2, plus Blockcast: a fixed set resolved
// by ParseApplication. They are ordinary AppDriver values: comparing against
// them (cfg.App == experiment.PushGossip) identifies the built-ins.
var (
	// GossipLearning is the model random-walk application of §2: models
	// perform random walks over the overlay and the metric is the relative
	// number of nodes visited (eq. 6).
	GossipLearning AppDriver = gossipLearningDriver{}
	// PushGossip is the broadcast application of §2: updates are injected
	// continuously and the metric is the average update lag (eq. 7).
	PushGossip AppDriver = pushGossipDriver{}
	// ChaoticIteration is the asynchronous power iteration application of
	// §2: the metric is the angle to the true dominant eigenvector.
	ChaoticIteration AppDriver = chaoticIterationDriver{}
)

// ParseApplication resolves an application spec string "name[:param...]":
// "gossip-learning" ("learning", "gl"), "push-gossip" ("broadcast", "pg"),
// "chaotic-iteration" ("poweriter", "ci") or
// "blockcast[:batchCap[:blockInterval]]" ("bc"). Parameters are handed to the
// driver's AppConfigurer capability; parameter-free applications reject them.
func ParseApplication(spec string) (AppDriver, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	var d AppDriver
	switch parts[0] {
	case "gossip-learning", "learning", "gl":
		d = GossipLearning
	case "push-gossip", "broadcast", "pg":
		d = PushGossip
	case "chaotic-iteration", "poweriter", "ci":
		d = ChaoticIteration
	case "blockcast", "bc":
		d = Blockcast
	default:
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

// Applications returns the names of the four applications in sorted order.
func Applications() []string {
	return []string{"blockcast", "chaotic-iteration", "gossip-learning", "push-gossip"}
}

// randomKOutOverlay is the overlay of the gossip learning and push gossip
// experiments: a k-out random graph.
func randomKOutOverlay(cfg Config, seed uint64) (*overlay.Graph, error) {
	return overlay.RandomKOut(cfg.N, cfg.OverlayK, rng.Derive(seed, 0x6b6f7574))
}

// gossipLearningDriver reproduces the gossip learning experiment: one model
// walker per node, metric eq. (6).
type gossipLearningDriver struct{}

func (gossipLearningDriver) Name() string        { return "gossip-learning" }
func (d gossipLearningDriver) String() string    { return d.Name() }
func (gossipLearningDriver) MetricLabel() string { return "relative visited nodes (eq. 6)" }

func (gossipLearningDriver) BuildOverlay(cfg Config, seed uint64) (*overlay.Graph, error) {
	return randomKOutOverlay(cfg, seed)
}

func (gossipLearningDriver) NewRun(cfg Config, graph *overlay.Graph) (AppRun, error) {
	// All walker state lives in one value slab; walkers holds the per-node
	// views the metric helpers consume. Two allocations for the whole run
	// instead of one per node.
	r := &gossipLearningRun{cfg: cfg, walkerSlab: make([]gossiplearning.Walker, cfg.N)}
	r.walkers = make([]*gossiplearning.Walker, cfg.N)
	for i := range r.walkers {
		r.walkers[i] = &r.walkerSlab[i]
	}
	return r, nil
}

type gossipLearningRun struct {
	cfg        Config
	walkerSlab []gossiplearning.Walker
	walkers    []*gossiplearning.Walker
}

func (r *gossipLearningRun) NewApp(node int) protocol.Application {
	return r.walkers[node]
}

func (r *gossipLearningRun) Sample(t float64, rc *RunContext) float64 {
	if rc.OnlineOnly {
		return gossiplearning.ProgressOnline(r.walkers, rc.Online, t, r.cfg.TransferDelay)
	}
	return gossiplearning.Progress(r.walkers, t, r.cfg.TransferDelay)
}

// pushGossipDriver reproduces the push gossip experiment: continuous update
// injection, metric eq. (7), smoothed; under churn, rejoining nodes pull the
// freshest update from a random online neighbour (§4.1.2).
type pushGossipDriver struct{}

func (pushGossipDriver) Name() string        { return "push-gossip" }
func (d pushGossipDriver) String() string    { return d.Name() }
func (pushGossipDriver) MetricLabel() string { return "average update lag (eq. 7)" }

// ArrivalDriven marks push gossip as a consumer of workload arrival
// processes: each arrival injects one update.
func (pushGossipDriver) ArrivalDriven() bool { return true }

func (pushGossipDriver) BuildOverlay(cfg Config, seed uint64) (*overlay.Graph, error) {
	return randomKOutOverlay(cfg, seed)
}

func (pushGossipDriver) NewRun(cfg Config, graph *overlay.Graph) (AppRun, error) {
	return &pushGossipRun{cfg: cfg, states: pushgossip.NewStates(cfg.N), latest: -1}, nil
}

// FinishMetric applies the paper's smoothing window to the averaged lag
// curve.
func (pushGossipDriver) FinishMetric(cfg Config, avg *metrics.Series) *metrics.Series {
	return avg.Smooth(DefaultSmoothWindow)
}

type pushGossipRun struct {
	cfg    Config
	states []pushgossip.State // every node's application, in one slab
	latest int64              // sequence number of the freshest injected update
}

func (r *pushGossipRun) NewApp(node int) protocol.Application {
	return &r.states[node]
}

// Start installs the update injection: one new update per workload arrival
// at a random online node — every DefaultInjectionInterval under the default
// workload, the paper setup. Injections that find the whole network offline
// are counted rather than silently lost. It schedules through the
// runtime-neutral host, so injection works identically in the simulated and
// the live runtime.
func (r *pushGossipRun) Start(rc *RunContext) {
	h := rc.Host
	h.ScheduleArrivals(rc.Arrivals, func() bool {
		node, ok := h.RandomOnlineNode()
		if !ok {
			h.SkipInjection()
			return true
		}
		r.latest++
		r.states[node].Inject(r.latest)
		return true
	})
}

// OnRejoin implements the §4.1.2 pull: a rejoining node issues one pull
// request to a random online neighbour; if that neighbour has a token it
// answers with its freshest update, burning the token.
func (r *pushGossipRun) OnRejoin(h *runtime.Host, node int) {
	responder, ok := h.RandomOnlineNeighbor(node)
	if !ok {
		return
	}
	// The pull request itself travels one transfer delay; the answer
	// (if any) travels another via RespondDirect -> Send.
	h.Env().At(h.Env().Now()+r.cfg.TransferDelay, func() {
		if !h.Online(responder) || !h.Online(node) {
			return
		}
		h.Node(responder).RespondDirect(protocol.NodeID(node))
	})
}

func (r *pushGossipRun) Sample(t float64, rc *RunContext) float64 {
	if rc.OnlineOnly {
		return pushgossip.LagOnline(r.states, rc.Online, r.latest)
	}
	return pushgossip.Lag(r.states, r.latest)
}

// chaoticIterationDriver reproduces the chaotic power iteration experiment
// over a Watts–Strogatz small world.
type chaoticIterationDriver struct{}

func (chaoticIterationDriver) Name() string     { return "chaotic-iteration" }
func (d chaoticIterationDriver) String() string { return d.Name() }
func (chaoticIterationDriver) MetricLabel() string {
	return "angle to dominant eigenvector (rad)"
}

func (chaoticIterationDriver) BuildOverlay(cfg Config, seed uint64) (*overlay.Graph, error) {
	// The 20-out overlay mixes too well for power iteration (§4.1.3); the
	// paper uses a Watts–Strogatz small world instead.
	return overlay.WattsStrogatz(cfg.N, DefaultWSNeighbors, DefaultWSBeta, rng.Derive(seed, 0x7773))
}

// Validate rejects churny scenarios: the angle metric needs every node's
// current value.
func (chaoticIterationDriver) Validate(cfg Config) error {
	if cfg.Scenario != nil && cfg.Scenario.Churny() {
		return fmt.Errorf("experiment: the chaotic iteration metric is undefined under churn (§4.2)")
	}
	return nil
}

func (chaoticIterationDriver) NewRun(cfg Config, graph *overlay.Graph) (AppRun, error) {
	reference, err := poweriter.Reference(graph, 2_000_000, 1e-10)
	if err != nil {
		return nil, err
	}
	return &chaoticIterationRun{
		graph:     graph,
		states:    make([]*poweriter.State, cfg.N),
		reference: reference,
	}, nil
}

type chaoticIterationRun struct {
	graph     *overlay.Graph
	states    []*poweriter.State
	reference []float64
}

func (r *chaoticIterationRun) NewApp(node int) protocol.Application {
	st, err := poweriter.New(r.graph, node)
	if err != nil {
		panic(err) // graph and index are validated during construction
	}
	r.states[node] = st
	return st
}

func (r *chaoticIterationRun) Sample(t float64, rc *RunContext) float64 {
	return poweriter.Angle(r.states, r.reference)
}
