package simnet

import (
	"testing"

	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	hostrt "github.com/szte-dcs/tokenaccount/runtime"
)

func TestDropProbabilityValidation(t *testing.T) {
	envCfg, cfg := walkerConfig(t, 20, core.PurelyProactive{}, 1)
	cfg.DropProbability = 1.5
	if _, _, err := assemble(envCfg, cfg); err == nil {
		t.Error("DropProbability > 1 accepted")
	}
	cfg.DropProbability = -0.1
	if _, _, err := assemble(envCfg, cfg); err == nil {
		t.Error("negative DropProbability accepted")
	}
}

func TestDropProbabilityDropsRoughlyTheRequestedFraction(t *testing.T) {
	envCfg, cfg := walkerConfig(t, 50, core.PurelyProactive{}, 3)
	cfg.DropProbability = 0.3
	_, net := mustAssemble(t, envCfg, cfg)
	mustRun(t, net, 40*cfg.Delta)
	sent := float64(net.MessagesSent())
	dropped := float64(net.MessagesDropped())
	if sent == 0 {
		t.Fatal("no messages sent")
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
		_, net := mustAssemble(t, EnvConfig{N: n, Seed: seed, TransferDelay: 1}, hostrt.Config{
			Graph:           g,
			Strategy:        func(int) core.Strategy { return strategy },
			NewApp:          func(int) protocol.Application { return pushgossip.New() },
			Delta:           100,
			DropProbability: dropPct,
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
	states := make([]*pushgossip.State, n)
	for i := 0; i < n; i++ {
		states[i] = tokenNet.App(i).(*pushgossip.State)
	}
	if cov := pushgossip.Coverage(states, nil, seq-30); cov < 0.5 {
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
