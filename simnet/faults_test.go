package simnet

import (
	"testing"

	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	hostrt "github.com/szte-dcs/tokenaccount/runtime"
)

// TestDropProbabilityDropsRoughlyTheRequestedFraction runs a Lossy network
// of probability 0.3. Its counts are the ones a Host-level loss lottery of
// the same probability gave before Lossy was the only loss: the lottery
// takes the same draw.
func TestDropProbabilityDropsRoughlyTheRequestedFraction(t *testing.T) {
	envCfg, cfg := walkerConfig(t, 50, core.PurelyProactive{}, 3)
	cfg.Network = netmodel.Lossy{P: 0.3, Inner: cfg.Network}
	_, net := mustAssemble(t, envCfg, cfg)
	mustRun(t, net, 40*cfg.Delta)
	sent := float64(net.MessagesSent())
	dropped := float64(net.MessagesDropped())
	if net.MessagesSent() != 2000 || net.MessagesDropped() != 585 {
		t.Errorf("sent %d, dropped %d, want 2000 and 585", net.MessagesSent(), net.MessagesDropped())
	}
	if ratio := dropped / sent; ratio < 0.2 || ratio > 0.4 {
		t.Errorf("drop ratio = %v, want ≈ 0.3", ratio)
	}
	if float64(net.MessagesDelivered())+dropped != sent {
		t.Errorf("delivered %d + dropped %d != sent %d",
			net.MessagesDelivered(), net.MessagesDropped(), net.MessagesSent())
	}
}

// TestProactiveComponentSurvivesMessageLoss verifies the fault-tolerance
// claim of §3.3.1 and §6: with a token account strategy, lost messages are
// eventually replaced by proactive ones (the account fills up and the node
// starts sending again), whereas a purely reactive system starves because
// messages are only ever sent in response to other messages.
func TestProactiveComponentSurvivesMessageLoss(t *testing.T) {
	const (
		n       = 60
		rounds  = 80
		dropPct = 0.5
	)
	build := func(strategy core.Strategy, seed uint64) *hostrt.Host {
		g, err := overlay.RandomKOut(n, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		_, net := mustAssemble(t, EnvConfig{N: n, Seed: seed}, hostrt.Config{
			Graph:    g,
			Strategy: strategy,
			NewApp:   func(int) protocol.Application { return pushgossip.New() },
			Delta:    100,
			Network:  netmodel.Lossy{P: dropPct, Inner: netmodel.Constant{D: 1}},
		})
		return net
	}

	// Token account (simple strategy): despite 50% loss, the proactive
	// fallback keeps messages flowing for the whole run.
	tokenNet := build(core.MustSimple(10), 7)
	seq := int64(0)
	tokenNet.SamplePeriodic(10, 50, func(float64) {
		if node, ok := tokenNet.RandomOnlineNode(); ok {
			seq++
			tokenNet.App(node).(*pushgossip.State).Inject(seq)
		}
	})
	mustRun(t, tokenNet, rounds*100)
	tokenSent := tokenNet.MessagesSent()
	// Sending never stalls: at least half the nominal proactive budget is
	// used even though half of all messages evaporate.
	if tokenSent < int64(n*rounds/2) {
		t.Errorf("token account sent only %d messages under 50%% loss", tokenSent)
	}
	// Reasonably recent updates still reach most of the network: despite the
	// loss, information keeps spreading because proactive messages replace
	// the lost reactive ones.
	covered := 0
	for i := 0; i < n; i++ {
		if tokenNet.App(i).(*pushgossip.State).Seq() >= seq-30 {
			covered++
		}
	}
	if cov := float64(covered) / n; cov < 0.5 {
		t.Errorf("coverage of updates ≤ 30 injections old = %v under 50%% loss, want ≥ 0.5", cov)
	}

	// Pure reactive: seed the system with a handful of messages; under the
	// same loss rate the message population dies out and the system stalls.
	reactiveNet := build(core.MustPureReactive(1, false), 7)
	for i := 0; i < 5; i++ {
		reactiveNet.App(i).(*pushgossip.State).Inject(int64(i + 1))
		reactiveNet.Send(protocol.NodeID(i), protocol.NodeID((i+1)%n), pushgossip.Update{Seq: int64(i + 1)}.Payload())
	}
	mustRun(t, reactiveNet, rounds*100)
	reactiveSent := reactiveNet.MessagesSent()
	if reactiveSent > int64(n*rounds/4) {
		t.Errorf("pure reactive system sent %d messages; expected starvation under 50%% loss", reactiveSent)
	}
	if tokenSent < 4*reactiveSent {
		t.Errorf("token account (%d msgs) should vastly out-message the starved reactive system (%d msgs)",
			tokenSent, reactiveSent)
	}
}
