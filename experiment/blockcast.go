package experiment

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/apps/blockcast"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
)

// Blockcast defaults: a ByzCoin-ish block of at most 64 transactions per
// proactive period, committed once two thirds of the online nodes hold it.
const (
	DefaultBlockcastBatchCap = 64
	BlockcastQuorum          = 2.0 / 3.0
)

// Blockcast is the block-dissemination application family (package
// apps/blockcast): transactions arrive through the workload dimension, a
// rotating proposer batches them into blocks, and blocks spread by
// announce/pull gossip shaped by the token-account strategy. The family is
// parameterized as "blockcast[:batchCap[:blockInterval]]" — batch cap in
// transactions, block interval in seconds (default one proactive period Δ).
var Blockcast AppDriver = blockcastDriver{}

// blockcastDriver configures the blockcast family. The zero value is the
// default: batch cap DefaultBlockcastBatchCap, block interval Δ.
type blockcastDriver struct {
	batchCap      int     // 0 → DefaultBlockcastBatchCap
	blockInterval float64 // 0 → cfg.Delta
}

func (blockcastDriver) Name() string { return "blockcast" }

func (d blockcastDriver) String() string {
	switch {
	case d.blockInterval != 0:
		return fmt.Sprintf("blockcast:%d:%g", d.cap(), d.blockInterval)
	case d.batchCap != 0:
		return fmt.Sprintf("blockcast:%d", d.batchCap)
	}
	return "blockcast"
}

func (d blockcastDriver) cap() int {
	if d.batchCap == 0 {
		return DefaultBlockcastBatchCap
	}
	return d.batchCap
}

// WithParams configures the family from a "blockcast:batchCap[:blockInterval]"
// spec.
func (d blockcastDriver) WithParams(args []string) (AppDriver, error) {
	if len(args) > 2 {
		return nil, fmt.Errorf("experiment: blockcast takes at most 2 parameters (batchCap[:blockInterval]), got %q",
			strings.Join(args, ":"))
	}
	batch, err := strconv.Atoi(args[0])
	if err != nil || batch < 1 || batch > blockcast.MaxBatch {
		return nil, fmt.Errorf("experiment: blockcast batch cap %q: need an integer in [1, %d]",
			args[0], blockcast.MaxBatch)
	}
	d.batchCap = batch
	if len(args) == 2 {
		interval, err := strconv.ParseFloat(args[1], 64)
		if err != nil || interval <= 0 {
			return nil, fmt.Errorf("experiment: blockcast block interval %q: need a positive number of seconds", args[1])
		}
		d.blockInterval = interval
	}
	return d, nil
}

func (blockcastDriver) MetricLabel() string { return "uncommitted block backlog (blocks)" }

// ArrivalDriven marks blockcast as a consumer of workload arrival processes:
// each arrival submits one transaction to the mempool.
func (blockcastDriver) ArrivalDriven() bool { return true }

// SummaryColumns names the scalar outcomes of a blockcast run: the commit
// latency quantiles and the heaviest per-node byte burst within one sampling
// interval — the load number the paper's message-count metric cannot see.
func (blockcastDriver) SummaryColumns() []string {
	return []string{"commit_latency_p50_s", "commit_latency_p99_s", "peak_node_burst_bytes"}
}

// Validate rejects the §3.4 rate-limit audit: blockcast's pull requests are
// free direct messages outside the token account (like the §4.1.2 rejoin
// pull, but on the steady-state path), so the audited envelope does not bound
// its senders.
func (blockcastDriver) Validate(cfg Config) error {
	if cfg.AuditRateLimit {
		return fmt.Errorf("experiment: blockcast sends free pull messages outside the token account; the §3.4 rate-limit audit does not apply")
	}
	return nil
}

func (blockcastDriver) BuildOverlay(cfg Config, seed uint64) (*overlay.Graph, error) {
	return randomKOutOverlay(cfg, seed)
}

func (d blockcastDriver) NewRun(cfg Config, graph *overlay.Graph) (AppRun, error) {
	chain, err := blockcast.NewChain(d.cap(), BlockcastQuorum)
	if err != nil {
		return nil, err
	}
	interval := d.blockInterval
	if interval == 0 {
		interval = cfg.Delta
	}
	r := &blockcastRun{
		cfg:       cfg,
		chain:     chain,
		interval:  interval,
		states:    make([]*blockcast.State, cfg.N),
		prevBytes: make([]int64, cfg.N),
	}
	r.stateSlab = blockcast.NewStates(cfg.N, r)
	for i := range r.states {
		r.states[i] = &r.stateSlab[i]
	}
	return r, nil
}

// blockcastRun is one repetition: the per-node states, the run-global chain,
// and the host adapter behind blockcast.Net. All chain access happens in
// coordinator context (Start's Every loops, Sample, Summarize, OnRejoin),
// where shard workers are parked at a barrier.
type blockcastRun struct {
	cfg       Config
	chain     *blockcast.Chain
	interval  float64
	stateSlab []blockcast.State
	states    []*blockcast.State
	host      *runtime.Host

	head   func(i int) uint64
	online func(i int) bool

	prevBytes []int64 // NodeBytes at the previous sample
	peakBurst int64   // max per-node byte delta between samples
}

// Send implements blockcast.Net: the free pull path.
func (r *blockcastRun) Send(from, to protocol.NodeID, p protocol.Payload) {
	r.host.Send(from, to, p)
}

// Respond implements blockcast.Net: the token-gated block answer, spending
// one of the responder's tokens through the protocol node.
func (r *blockcastRun) Respond(from, to protocol.NodeID, p protocol.Payload) bool {
	return r.host.Node(int(from)).RespondPayload(to, p)
}

func (r *blockcastRun) NewApp(node int) protocol.Application {
	return r.states[node]
}

// Start wires the three run-global loops: transaction arrivals feed the
// mempool (one per workload arrival; the default workload is the paper's
// fixed DefaultInjectionInterval drip), commit checks scan the network four
// times per block interval, and the proposal loop rotates the proposer every
// block interval. The commit loop is scheduled before the proposal loop, so
// at a shared instant commits are scanned against the pre-proposal chain.
func (r *blockcastRun) Start(rc *RunContext) {
	h := rc.Host
	r.host = h
	r.head = func(i int) uint64 {
		height, _ := r.states[i].Head()
		return height
	}
	if rc.Trace != nil {
		r.online = h.Online
	}

	h.ScheduleArrivals(rc.Arrivals, func() bool {
		r.chain.Submit(1)
		return true
	})

	checkEvery := r.interval / 4
	h.Env().Every(checkEvery, checkEvery, func() bool {
		r.chain.CheckCommits(h.Env().Now(), len(r.states), r.head, r.online)
		return true
	})

	round := 0
	h.Env().Every(r.interval, r.interval, func() bool {
		r.propose(h, round)
		round++
		return true
	})
}

// propose runs one proposal slot: the slot belongs to node round mod N, and
// under churn it advances deterministically to the next online node so an
// offline leader costs nothing but the scan. A slot with no online proposer
// or an empty mempool produces no block.
func (r *blockcastRun) propose(h *runtime.Host, round int) {
	n := len(r.states)
	start := round % n
	for k := 0; k < n; k++ {
		p := (start + k) % n
		if !h.Online(p) {
			continue
		}
		r.chain.TryPropose(h.Env().Now(), r.states[p])
		return
	}
}

// OnRejoin is the §4.1.2 catch-up for blockcast: a rejoining node sends one
// free pull for the block past its head to a random online neighbour; the
// answer is token-gated on the responder, like every other block transfer.
func (r *blockcastRun) OnRejoin(h *runtime.Host, node int) {
	responder, ok := h.RandomOnlineNeighbor(node)
	if !ok {
		return
	}
	height, _ := r.states[node].Head()
	if height >= blockcast.MaxHeight {
		return
	}
	h.Send(protocol.NodeID(node), protocol.NodeID(responder),
		blockcast.Msg{Kind: blockcast.MsgPull, Height: height + 1}.Payload())
}

// Sample returns the uncommitted block backlog and refreshes the per-node
// burst tracker: the peak number of bytes any single node sent within one
// sampling interval so far.
func (r *blockcastRun) Sample(t float64, rc *RunContext) float64 {
	for i := range r.prevBytes {
		b := rc.Host.NodeBytes(i)
		if d := b - r.prevBytes[i]; d > r.peakBurst {
			r.peakBurst = d
		}
		r.prevBytes[i] = b
	}
	return float64(r.chain.Backlog())
}

// Summarize reports the summary columns of SummaryColumns: commit latency
// p50 and p99 (NaN if nothing committed) and the peak per-node burst.
func (r *blockcastRun) Summarize(rc *RunContext) []float64 {
	return []float64{
		r.chain.Latency.Query(0.5),
		r.chain.Latency.Query(0.99),
		float64(r.peakBurst),
	}
}

// BlockcastRow is one grid point of the blockcast figure: a scenario ×
// network × workload × strategy combination and its run result.
type BlockcastRow struct {
	Scenario ScenarioDriver
	Network  Network
	Workload Workload
	Strategy StrategySpec
	Result   *Result
}

// BlockcastFigure runs the block-dissemination comparison that the paper's
// message-count figures cannot show: one representative strategy per family
// (including the degenerate pure-reactive one, which never seeds the gossip
// wave and so never commits) over churn × latency/loss model × arrival
// process, reporting commit latency and byte-level burst load. Rows come
// back in deterministic grid order.
func BlockcastFigure(opt Options) ([]BlockcastRow, error) {
	scenarios := []ScenarioDriver{FailureFree, SmartphoneTrace}
	netSpecs := []string{"zones:4:0.5:3", "lossy:0.01:uniform:1:2"}
	wlSpecs := []string{"poisson:0.25", "flashcrowd:600:10:120:poisson:0.25"}
	strategies := []StrategySpec{
		Proactive(),
		{Kind: KindReactive},
		Simple(10),
		Generalized(5, 10),
		Randomized(5, 10),
	}

	var rows []BlockcastRow
	for _, sc := range scenarios {
		for _, netSpec := range netSpecs {
			net, err := ParseNetwork(netSpec)
			if err != nil {
				return nil, err
			}
			for _, wlSpec := range wlSpecs {
				wl, err := ParseWorkload(wlSpec)
				if err != nil {
					return nil, err
				}
				for _, spec := range strategies {
					rows = append(rows, BlockcastRow{Scenario: sc, Network: net, Workload: wl, Strategy: spec})
				}
			}
		}
	}
	err := ForEach(context.Background(), opt.Workers, len(rows), func(i int) error {
		r := &rows[i]
		res, err := Run(Config{
			App:         Blockcast,
			Strategy:    r.Strategy,
			Scenario:    r.Scenario,
			Network:     r.Network,
			Workload:    r.Workload,
			N:           opt.n(300, 5000),
			Rounds:      opt.rounds(100),
			Repetitions: opt.reps(1),
			Seed:        opt.Seed,
		})
		if err != nil {
			return fmt.Errorf("blockcast figure: %s/%s/%s/%s: %w",
				DriverLabel(r.Scenario), DriverLabel(r.Network), DriverLabel(r.Workload), r.Strategy.Label(), err)
		}
		r.Result = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
