// The quickstart example runs a small in-process network of token account
// nodes in real time, executing the push gossip broadcast application. It
// shows the essential workflow of the library:
//
//  1. pick a token account strategy (here the generalized strategy with
//     A = 1, C = 10, i.e. react aggressively but never hold more than 10
//     tokens),
//  2. implement or reuse an application (pushgossip.State),
//  3. assemble the nodes with runtime.NewHost over an environment — the
//     wall-clock live.Env here; the very same assembly runs on the simulated
//     simnet.Env, and one-node-per-process on the tokennode daemon,
//  4. inject application events and watch them propagate while the traffic
//     stays within the ceil(t/Δ)+C rate-limit envelope.
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
)

func main() {
	const (
		nodes   = 24
		delta   = 0.010 // seconds; the paper uses minutes, we compress time
		warmup  = 20 * delta
		horizon = warmup + 60*delta
	)
	strategy := core.MustGeneralized(1, 10)

	graph, err := overlay.Complete(nodes)
	if err != nil {
		log.Fatal(err)
	}
	// In process: the run loop delivers every message itself. Over sockets,
	// each node is a daemon of its own (live.Daemon, cmd/tokennode).
	env, err := live.NewEnv(live.EnvConfig{N: nodes, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	host, err := runtime.NewHost(env, runtime.Config{
		Graph:    graph,
		Strategy: strategy,
		NewApp:   func(int) protocol.Application { return pushgossip.New() },
		Delta:    delta,
		// Every message is held 1 ms on the run loop's scheduler before it
		// is delivered.
		Network: netmodel.Constant{D: 0.001},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Give every node a moment to bank a few tokens, then publish an update
	// at node 0 and watch it cover the network.
	covered := func() int {
		count := 0
		for i := 0; i < nodes; i++ {
			if host.App(i).(*pushgossip.State).Seq() >= 1 {
				count++
			}
		}
		return count
	}
	env.At(warmup, func() {
		host.App(0).(*pushgossip.State).Inject(1)
		done := false
		host.SamplePeriodic(0, 2*delta, func(t float64) {
			if done {
				return
			}
			c := covered()
			fmt.Printf("t=%3.0f ms  update known by %d/%d nodes\n", (t-warmup)*1000, c, nodes)
			done = c == nodes
		})
	})
	if err := host.Run(horizon); err != nil {
		log.Fatal(err)
	}

	stats := host.TotalStats()
	fmt.Printf("\ntotal messages sent: %d (proactive %d, reactive %d)\n",
		stats.TotalSent(), stats.ProactiveSent, stats.ReactiveSent)
	fmt.Printf("total proactive rounds executed: %d\n", stats.Rounds)
	fmt.Printf("messages per node per round: %.2f (rate-limited to ≤ 1 in the long run)\n",
		float64(stats.TotalSent())/float64(stats.Rounds))
	fmt.Printf("strategy: %s, burst bound per node: %d tokens\n", strategy.Name(), strategy.Capacity())
	if c := covered(); c != nodes {
		fmt.Fprintf(os.Stderr, "quickstart: the update reached only %d of %d nodes\n", c, nodes)
		os.Exit(1)
	}
}
