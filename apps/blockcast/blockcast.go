// Package blockcast implements a leader-rotating block-dissemination
// application in the style of the ByzCoin/OmniLedger conode: transactions
// accumulate in a global mempool, a deterministic per-round proposer batches
// them into the next block of a single chain, and the block spreads through
// the network by announce/pull gossip whose reactive traffic is gated by the
// node's token-account strategy. A height counts as committed once a quorum
// of the online nodes holds it — the announcement has quiesced.
//
// The message economy follows the paper's split between proactive, reactive
// and pull traffic (§3, §4.1.2):
//
//   - ANNOUNCE carries a node's head (height + batch size). It is what
//     CreateMessage produces, so both the proactive loop and the reactive
//     sends after adopting a block are announcements — all of them paid for
//     by the token account.
//   - PULL asks a peer for its announced block. Pulls are free (like the
//     rejoin pull of §4.1.2): they are small, addressed, and only ever sent
//     in response to an announce that proved the peer ahead.
//   - BLOCK answers a pull with the server's head block, token-gated through
//     protocol.Node.RespondPayload: a peer with an empty account gives no
//     answer, exactly like the paper's rejoin protocol.
//
// Unlike the paper's one-word demonstrator applications, message size
// matters here: a block weighs a header plus its batched transactions, so
// the strategies are compared on wire bytes and burst load, not just
// message counts (see protocol.PayloadSize, which weighs each message, and
// the runtime's byte accounting).
//
// The chain is content-free on purpose: blocks carry height and batch size,
// not transactions or hashes, because the experiment measures dissemination
// and load, not validity. There is one proposer per interval extending a
// single chain, so forks cannot arise; Byzantine behaviour and view changes
// are out of scope.
package blockcast

import (
	"fmt"

	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/protocol"
)

// Net is the transport the application states send through. The experiment
// driver backs it with the runtime.Host; benchmarks wire it to a host
// directly. Both methods are called from within UpdateState, i.e. on the
// receiving node's shard worker — which is legal precisely because from is
// always the receiving node itself (a node only ever sends from its owning
// shard).
type Net interface {
	// Send transmits a free message — the pull path, which spends no tokens.
	Send(from, to protocol.NodeID, p protocol.Payload)
	// Respond transmits a token-gated direct response: it must send p from
	// from iff from holds a token, spending it (protocol.Node.RespondPayload)
	// and reporting whether the message went out.
	Respond(from, to protocol.NodeID, p protocol.Payload) bool
}

// State is one node's view of the chain: the highest block it holds. It
// implements protocol.Application; the token-account node wraps it exactly
// like the paper applications.
type State struct {
	id     protocol.NodeID
	net    Net
	height uint64
	batch  uint32
}

// NewStates returns a slab of n states for nodes 0..n-1, all sending through
// net: the whole network's application state in one allocation.
func NewStates(n int, net Net) []State {
	states := make([]State, n)
	for i := range states {
		states[i] = State{id: protocol.NodeID(i), net: net}
	}
	return states
}

// Head returns the height and batch size of the node's highest block
// (0, 0 before the first block arrives).
func (s *State) Head() (height uint64, batch uint32) { return s.height, s.batch }

// adopt installs a block as the node's new head. The proposer seeds its own
// freshly built block this way; receivers adopt through UpdateState.
func (s *State) adopt(height uint64, batch uint32) {
	s.height, s.batch = height, batch
}

// CreateMessage announces the node's head — the payload of both proactive
// and reactive token-paid sends.
func (s *State) CreateMessage() protocol.Payload {
	return Msg{Kind: MsgAnnounce, Height: s.height, Batch: s.batch}.Payload()
}

// UpdateState implements the gossip protocol. A message is useful exactly
// when it advanced the local head — so the reactive response to adopting a
// block is a burst of announcements of the new head, which is what makes
// token-account strategies shape the dissemination wave.
func (s *State) UpdateState(from protocol.NodeID, payload protocol.Payload) bool {
	m, ok := MsgFromPayload(payload)
	if !ok {
		return false
	}
	switch m.Kind {
	case MsgAnnounce:
		if m.Height > s.height {
			// The peer is ahead: pull its announced block. The pull is free;
			// the answer is where the peer's tokens are spent. Our own state
			// has not advanced yet, so the announce itself is not "useful" —
			// reacting to it with announcements of our stale head would be
			// pure noise.
			s.net.Send(s.id, from, Msg{Kind: MsgPull, Height: m.Height}.Payload())
		}
		return false
	case MsgPull:
		if s.height >= m.Height && s.height > 0 {
			s.net.Respond(s.id, from, Msg{Kind: MsgBlock, Height: s.height, Batch: s.batch}.Payload())
		}
		return false
	case MsgBlock:
		if m.Height > s.height {
			s.adopt(m.Height, m.Batch)
			return true
		}
		return false
	}
	return false
}

// Chain is the run-global ledger state: the mempool, the proposal bookkeeping
// and the commit scan. It lives in coordinator context (the experiment run or
// a benchmark loop) — per-node state stays in State, so shard workers never
// touch the Chain.
type Chain struct {
	batchCap int
	quorum   float64

	pending   int64  // transactions submitted but not yet batched
	proposed  uint64 // height of the newest proposed block
	committed uint64 // highest height that reached quorum

	// proposeTimes[h-1] is the proposal time of height h; batches[h-1] its
	// batch size. Grown by append; pre-sized so steady-state proposing stays
	// off the allocator for the benchmark horizons.
	proposeTimes []float64
	batches      []uint32

	// Latency collects commit latencies (commit time − proposal time).
	Latency *metrics.Quantile

	counts []int64 // commit-scan scratch, one slot per uncommitted height
}

// NewChain returns an empty chain batching at most batchCap transactions per
// block and committing a height once at least quorum (a fraction in (0, 1])
// of the online nodes hold it.
func NewChain(batchCap int, quorum float64) (*Chain, error) {
	if batchCap < 1 || batchCap > MaxBatch {
		return nil, fmt.Errorf("blockcast: batch cap %d outside [1, %d]", batchCap, MaxBatch)
	}
	if quorum <= 0 || quorum > 1 {
		return nil, fmt.Errorf("blockcast: commit quorum %g outside (0, 1]", quorum)
	}
	return &Chain{
		batchCap:     batchCap,
		quorum:       quorum,
		proposeTimes: make([]float64, 0, 1024),
		batches:      make([]uint32, 0, 1024),
		Latency:      metrics.NewQuantile(),
	}, nil
}

// Submit adds n transactions to the mempool.
func (c *Chain) Submit(n int) { c.pending += int64(n) }

// Backlog returns the number of proposed-but-uncommitted blocks — the
// application metric: it grows when dissemination falls behind the offered
// transaction load.
func (c *Chain) Backlog() uint64 { return c.proposed - c.committed }

// TryPropose builds the next block at time now if the mempool is non-empty:
// it batches up to the cap, extends the chain and seeds the proposer's state
// with the new head (the proposer then announces it through its own
// token-paid traffic). It reports whether a block was proposed.
func (c *Chain) TryPropose(now float64, proposer *State) bool {
	if c.pending <= 0 || c.proposed >= MaxHeight {
		return false
	}
	batch := c.pending
	if batch > int64(c.batchCap) {
		batch = int64(c.batchCap)
	}
	c.pending -= batch
	c.proposed++
	c.proposeTimes = append(c.proposeTimes, now)
	c.batches = append(c.batches, uint32(batch))
	proposer.adopt(c.proposed, uint32(batch))
	return true
}

// CheckCommits advances the committed height at time now: scanning the n
// nodes' heads once, it commits every pending height held by at least
// quorum·(online count) online nodes, in order, recording each commit's
// latency. A nil online treats every node as online. It returns the number
// of heights committed by this call. The scan is O(n + backlog) with no
// allocation in steady state, and O(1) when nothing is pending.
func (c *Chain) CheckCommits(now float64, n int, head func(i int) uint64, online func(i int) bool) int {
	if c.committed >= c.proposed {
		return 0
	}
	window := int(c.proposed - c.committed)
	if cap(c.counts) < window {
		c.counts = make([]int64, window)
	}
	c.counts = c.counts[:window]
	for k := range c.counts {
		c.counts[k] = 0
	}
	onlineCount := 0
	for i := 0; i < n; i++ {
		if online != nil && !online(i) {
			continue
		}
		onlineCount++
		h := head(i)
		if h > c.proposed {
			h = c.proposed
		}
		if h > c.committed {
			c.counts[h-c.committed-1]++
		}
	}
	if onlineCount == 0 {
		return 0
	}
	// Suffix sums: counts[k] becomes the number of online nodes whose head is
	// at least committed+1+k.
	for k := window - 2; k >= 0; k-- {
		c.counts[k] += c.counts[k+1]
	}
	need := c.quorum * float64(onlineCount)
	done := 0
	for k := 0; k < window; k++ {
		if float64(c.counts[k]) < need {
			break
		}
		c.Latency.Add(now - c.proposeTimes[c.committed])
		c.committed++
		done++
	}
	return done
}
