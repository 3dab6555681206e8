package main

// workloadDef is one workload of the benchmark: exactly one of sim and live
// is set.
type workloadDef struct {
	name string
	// why is the reason the workload exists, copied into BENCHMARK.json.
	why string

	sim *simSpec
	// sequentialRuntime is set on a sharded simulator workload: the runtime
	// spec of the shards = 1 rep its traced pass decomposes and compares with.
	sequentialRuntime string
	// costBase, when set, is the workload whose CPU cost per event is the
	// denominator of sim.scale_cost_ratio.
	costBase *simSpec

	live *liveSpec
}

// fig2 is the paper's Figure 2 push-gossip row at full size.
var fig2 = simSpec{
	app: "push-gossip", strategy: "randomized:5:10", scenario: "failure-free",
	network: "constant", workload: "interval", runtime: "sim",
	n: 5000, rounds: 1000,
}

var workloads = []workloadDef{
	{
		name: "sim-fig2-5k",
		why:  "Paper Fig. 2 push-gossip row, N=5000 x 1000 rounds, constant delay: cache-resident, so event queue, engine delivery, Host.Send and Node.Receive do all the work; netmodel, trace, workload do none",
		sim:  &fig2,
	},
	{
		name: "sim-churn-wan-5k",
		why:  "Same layers used differently, on the slab (heap) event queue: smartphone churn, lossy lognormal delays, Poisson arrivals, so trace hooks, rejoin pulls, the loss lottery, netmodel and workload all run",
		// On the calendar queue (runtime "sim") about one seed in ten of this
		// configuration runs 3 to 12 times slower than the rest (seeds 208, 304
		// and 309 of the thirty tried: simnet.send_ns 8.6 µs against 70 ns): the
		// queue estimates its bucket width only when it grows, from whichever
		// events sit in its first buckets, and with two days of churn events
		// scheduled up front that sample can put every tick into one bucket. A
		// gauge cannot be bimodal in its input, so the workload runs on the slab
		// queue, which takes 2.3 s for every seed; when the calendar queue is
		// fixed, "sim" belongs here again.
		sim: &simSpec{
			app: "push-gossip", strategy: "generalized:5:10", scenario: "smartphone-trace",
			network: "lossy:0.01:lognormal:0.547:0.5", workload: "poisson:0.0579", runtime: "sim:slab",
			n: 5000, rounds: 1000,
		},
	},
	{
		name: "sim-scale-500k-x2",
		why:  "Paper Fig. 4 size on the sharded engine (N=500000, zones, shards=2): working set far beyond cache, seconds-scale set-up, and the only workload where windows, barriers and the coordinator run",
		sim: &simSpec{
			app: "push-gossip", strategy: "randomized:5:10", scenario: "failure-free",
			network: "zones:8:0.5:3", workload: "interval", runtime: "sim:shards=2",
			n: 500000, rounds: 10,
		},
		sequentialRuntime: "sim:shards=1",
		costBase:          &fig2,
	},
	{
		name: "live-tcp-pingpong-16",
		why:  "Closed loop, 1 token relayed over 16 loopback TCP endpoints through live.Env: latency-bound, so events_per_sec is 1/mean hop latency and batching that delays a frame shows as a loss",
		live: &liveSpec{nodes: 16, tokens: 1},
	},
	{
		name: "live-tcp-flood-16",
		why:  "Closed loop, 256 tokens over the same 16-endpoint mesh: throughput-bound on the single run loop, the opposite use of transport and live.Env from ping-pong; 256 tokens cannot overflow a queue",
		live: &liveSpec{nodes: 16, tokens: 256},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
