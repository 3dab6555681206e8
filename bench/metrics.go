package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef describes one metric the benchmark prints. The result line is
// rendered from the tables below, a test keeps BENCHMARK.json equal to them,
// and a layer a workload does not run reports 0 for that layer's metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
}

// endToEnd is what a user of the system sees. Every workload reports all
// four: an "event" is one executed scheduler event on the simulator workloads
// and one relayed frame (a hop) on the live ones, so events_per_sec on
// live-tcp-pingpong-16 is the reciprocal of the mean hop latency and on
// live-tcp-flood-16 the relay throughput.
var endToEnd = []metricDef{
	{Name: "events_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_event", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer is what the traced pass attributes to single layers. README.md
// says which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	// Set-up.
	{Name: "overlay.build_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.build_ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.newrun_ms", Unit: "ms", Better: "lower"},
	{Name: "simnet.newenv_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.newhost_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.bytes_per_node", Unit: "B", Better: "lower"},

	// Run: time and exact counts.
	{Name: "simnet.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "simnet.sends", Unit: "count", Better: "lower"},
	{Name: "runtime.deliveries", Unit: "count", Better: "lower"},
	{Name: "runtime.hooks", Unit: "count", Better: "lower"},
	{Name: "runtime.msgs_dropped", Unit: "count", Better: "lower"},
	{Name: "workload.injections_skipped", Unit: "count", Better: "lower"},
	{Name: "protocol.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "protocol.reactive_share", Unit: "ratio", Better: "higher"},
	{Name: "core.audit_violations", Unit: "count", Better: "lower"},

	// Run: per-call cost of each layer.
	{Name: "sim.engine_self_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.send_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.deliver_self_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.hook_self_ns", Unit: "ns", Better: "lower"},
	{Name: "apps.update_ns", Unit: "ns", Better: "lower"},
	{Name: "apps.create_ns", Unit: "ns", Better: "lower"},
	{Name: "experiment.timer_ms", Unit: "ms", Better: "lower"},
	{Name: "netmodel.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},

	// Scale and sharding.
	{Name: "sim.scale_cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.sharded.speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.sharded.cpu_per_wall", Unit: "ratio", Better: "higher"},

	// Go runtime around an untraced run.
	{Name: "go.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.heap_peak_mb", Unit: "MB", Better: "lower"},

	// Live stack.
	{Name: "live.newenv_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.first_contact_ms", Unit: "ms", Better: "lower"},
	{Name: "live.hop_us_p50", Unit: "us", Better: "lower"},
	{Name: "live.hop_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.send_call_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.link_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.link_us_p99", Unit: "us", Better: "lower"},
	{Name: "live.inbox_us_p50", Unit: "us", Better: "lower"},
	{Name: "live.inbox_us_p99", Unit: "us", Better: "lower"},
	{Name: "live.relay_cb_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.frames_sent", Unit: "count", Better: "higher"},
	{Name: "transport.bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "transport.sends_shed", Unit: "count", Better: "lower"},
	{Name: "transport.send_errors", Unit: "count", Better: "lower"},
	{Name: "transport.dials", Unit: "count", Better: "lower"},
	{Name: "transport.reconnects", Unit: "count", Better: "lower"},
	{Name: "transport.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "live.dropped_deliveries", Unit: "count", Better: "lower"},
	{Name: "os.sys_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "os.ctxsw_per_hop", Unit: "count", Better: "lower"},

	// The measurement itself.
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.calib_ms_before", Unit: "ms", Better: "lower"},
	{Name: "host.calib_ms_after", Unit: "ms", Better: "lower"},
	{Name: "host.loadavg1", Unit: "load", Better: "lower"},
}

// result is what one workload run hands back.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
}

// resultJSON is the result line: written by a workload run, read back by the
// parent when the workloads run as child processes.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the last line of standard output: one JSON object with
// exactly the metrics of defs. A metric the workload did not produce is an
// error for end-to-end metrics (every workload reports all of them) and 0 for
// per-layer ones (the workload does not run that layer).
func resultLine(r result, defs []metricDef, requireAll bool) (string, error) {
	out := resultJSON{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricJSON, len(defs))}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && requireAll {
			return "", fmt.Errorf("workload did not report %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// printMetrics lists every metric of defs the run produced, by name, with its
// unit.
func printMetrics(r result, defs []metricDef) {
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok {
			fmt.Printf("%-28s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
