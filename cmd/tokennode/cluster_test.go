package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/szte-dcs/tokenaccount/experiment"
)

// clusterNodes is the size of the multi-process smoke cluster. The acceptance
// bar is a 10+ node deployment; 12 keeps a margin without stretching CI time.
const clusterNodes = 12

// reserveAddrs grabs n distinct loopback TCP addresses by binding them all
// and only then releasing them, so the daemon processes can be handed
// non-colliding fixed addresses on their command lines. Every address of a
// test must come from one call: the kernel may hand a released port out
// again, so a second batch could repeat one of the first.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// scrapeMetric fetches url and returns the value of the first sample line
// starting with prefix (a metric name, optionally with labels, plus the
// trailing space).
func scrapeMetric(url, prefix string) (float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %q not found at %s", prefix, url)
}

// scrapeClusterTotals sums sends (proactive + reactive) and rounds across
// every process's metrics page.
func scrapeClusterTotals(t *testing.T, httpAddrs []string) (sends, rounds float64) {
	t.Helper()
	for _, addr := range httpAddrs {
		base := "http://" + addr + "/metrics"
		r, err := scrapeMetric(base, "tokennode_rounds_total ")
		if err != nil {
			t.Fatal(err)
		}
		pro, err := scrapeMetric(base, `tokennode_sends_total{kind="proactive"} `)
		if err != nil {
			t.Fatal(err)
		}
		rea, err := scrapeMetric(base, `tokennode_sends_total{kind="reactive"} `)
		if err != nil {
			t.Fatal(err)
		}
		sends += pro + rea
		rounds += r
	}
	return sends, rounds
}

// TestMultiProcessCluster is the deployment smoke test and the out-of-process
// half of the simulator cross-check: it builds the tokennode binary, launches
// a 12-process localhost cluster running nominal push gossip, drives update
// injections at the paper's Δ/10 cadence through the ops endpoint, and
// asserts that
//
//   - every update disseminates to every process (convergence),
//   - every /healthz serves 200 and /metrics exposes the ops series,
//   - the realized message rate matches the simulator: the token account
//     caps traffic at one message per node per round on any runtime, so the
//     cluster-wide sends/rounds ratio over the injection window must land
//     within [0.5x, 2x] of the simulated MessagesPerNodePerRound for the
//     identical configuration — wide enough to absorb wall-clock jitter, the
//     banked tokens from the boot phase and the membership-table sampling
//     standing in for the sim's overlay sampler, and narrow enough to catch
//     the real failure modes (messages not crossing the wire, or the rate
//     limiter not engaging at all),
//   - no process ever broke the §3.4 rate bound (its always-on audit),
//   - POST /drain shuts a process down gracefully and the rest survive it.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster")
	}
	bin := filepath.Join(t.TempDir(), "tokennode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tokennode: %v\n%s", err, out)
	}

	addrs := reserveAddrs(t, 2*clusterNodes)
	protoAddrs, httpAddrs := addrs[:clusterNodes], addrs[clusterNodes:]
	var peerList []string
	for i, addr := range protoAddrs {
		peerList = append(peerList, fmt.Sprintf("%d=%s", i, addr))
	}
	peers := strings.Join(peerList, ",")

	procs := make([]*exec.Cmd, clusterNodes)
	exited := make([]chan error, clusterNodes)
	for i := range procs {
		cmd := exec.Command(bin,
			"-id", strconv.Itoa(i),
			"-listen", protoAddrs[i],
			"-http", httpAddrs[i],
			"-peers", peers, // own entry included; the daemon skips it
			"-cluster-size", strconv.Itoa(clusterNodes),
			"-app", "push-gossip",
			"-strategy", "randomized:8:40",
			"-overlay-k", "8",
			"-delta", "100ms",
			"-seed", strconv.Itoa(i+1), // per-node protocol randomness
			"-overlay-seed", "1", // deployment-wide: identical on every node
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		procs[i] = cmd
		ch := make(chan error, 1)
		exited[i] = ch
		go func() { ch <- cmd.Wait() }()
		t.Cleanup(func() { _ = cmd.Process.Kill() })
	}

	// Wait until every ops endpoint serves.
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; i < clusterNodes; i++ {
		for {
			resp, err := http.Get("http://" + httpAddrs[i] + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never became healthy", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Baseline counter snapshot: the comparison below measures the injection
	// window only, so rounds spent idling while the fleet booted (banking
	// tokens with nothing to gossip) do not dilute the rate.
	baseSends, baseRounds := scrapeClusterTotals(t, httpAddrs)

	// Drive updates at the paper's cadence (one injection per Δ/10 = 10 ms),
	// round-robin across the processes like the sim's random-node injector.
	const injections = 150
	var finalSeq int64
	for seq := 1; seq <= injections; seq++ {
		node := seq % clusterNodes
		resp, err := http.Post(fmt.Sprintf("http://%s/inject?seq=%d", httpAddrs[node], seq), "", nil)
		if err != nil {
			t.Fatalf("inject %d at node %d: %v", seq, node, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inject %d at node %d: status %d", seq, node, resp.StatusCode)
		}
		finalSeq = int64(seq)
		time.Sleep(10 * time.Millisecond)
	}

	// Convergence: the final update must reach every process.
	deadline = time.Now().Add(20 * time.Second)
	for i := 0; i < clusterNodes; i++ {
		for {
			seq, err := scrapeMetric("http://"+httpAddrs[i]+"/metrics", "tokennode_app_seq ")
			if err == nil && int64(seq) == finalSeq {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d stuck at seq %v, want %d (%v)", i, seq, finalSeq, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// Ops surface: the metrics pages carry the protocol and transport series.
	resp, err := http.Get("http://" + httpAddrs[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tokennode_tokens ",
		"tokennode_rounds_total ",
		"tokennode_bytes_sent_total ",
		`tokennode_health{state="serving"} 1`,
		"tokennode_transport_frames_sent_total ",
		"tokennode_transport_peers_connected ",
		"tokennode_tick_latency_seconds_count ",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q", want)
		}
	}

	// Cross-check against the simulator: same application, strategy, overlay
	// degree and cluster size on the discrete-event engine, comparing the
	// injection-window rate.
	endSends, endRounds := scrapeClusterTotals(t, httpAddrs)
	windowSends, windowRounds := endSends-baseSends, endRounds-baseRounds
	if windowRounds < clusterNodes*5 {
		t.Fatalf("cluster only completed %v rounds in the window; too short to compare", windowRounds)
	}
	liveRate := windowSends / windowRounds

	simRes, err := experiment.Run(experiment.Config{
		App:      experiment.PushGossip,
		Strategy: experiment.Randomized(8, 40),
		N:        clusterNodes,
		OverlayK: 8,
		Rounds:   20,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	simRate := simRes.MessagesPerNodePerRound
	t.Logf("messages per node per round: cluster %.3f vs sim %.3f", liveRate, simRate)
	if liveRate > 1.01 {
		t.Errorf("cluster exceeded the rate budget: %.3f messages/node/round", liveRate)
	}
	if liveRate < 0.5*simRate || liveRate > 2*simRate {
		t.Errorf("cluster rate %.3f outside [0.5x, 2x] of sim rate %.3f", liveRate, simRate)
	}

	// The guarantee itself, on the wall clock and across real sockets: every
	// process audits its own sends against ⌈t/Δ⌉ + C, with no jitter
	// allowance.
	for i, addr := range httpAddrs {
		v, err := scrapeMetric("http://"+addr+"/metrics", "tokennode_audit_violations ")
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Errorf("node %d: audit_violations = %v, want 0", i, v)
		}
	}

	// Graceful drain through the ops endpoint: the process must exit...
	resp, err = http.Post("http://"+httpAddrs[clusterNodes-1]+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: status %d, want 202", resp.StatusCode)
	}
	select {
	case err := <-exited[clusterNodes-1]:
		if err != nil {
			t.Errorf("drained node exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drained node did not exit")
	}
	// ...and the survivors must shrug it off and keep serving.
	for i := 0; i < clusterNodes-1; i++ {
		resp, err := http.Get("http://" + httpAddrs[i] + "/healthz")
		if err != nil {
			t.Fatalf("node %d after drain: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("node %d unhealthy after peer drain: %d", i, resp.StatusCode)
		}
	}

	// Orderly shutdown of the remainder via SIGTERM, as a deployment would.
	for i := 0; i < clusterNodes-1; i++ {
		_ = procs[i].Process.Signal(os.Interrupt)
	}
	for i := 0; i < clusterNodes-1; i++ {
		select {
		case err := <-exited[i]:
			if err != nil {
				t.Errorf("node %d exited with %v", i, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("node %d did not exit on SIGINT", i)
		}
	}
}
