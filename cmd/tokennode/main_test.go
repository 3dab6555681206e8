package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers(" 1=127.0.0.1:7001, 2=host:7002 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].ID != 1 || peers[0].Addr != "127.0.0.1:7001" || peers[1].ID != 2 || peers[1].Addr != "host:7002" {
		t.Errorf("parsePeers = %+v", peers)
	}
	if p, err := parsePeers(""); err != nil || p != nil {
		t.Errorf("empty peers = (%v, %v)", p, err)
	}
	for _, bad := range []string{"1", "x=host:1", "1=", "=host:1"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

func TestLoadConfigFileOverride(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.json")
	if err := os.WriteFile(path, []byte(`{"id": 7, "delta": "250ms", "strategy": "simple:10"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseOptions([]string{"-config", path, "-id", "3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != 3 {
		t.Errorf("explicit flag lost to config: id = %d", o.ID)
	}
	if o.Delta != "250ms" || o.Strategy != "simple:10" {
		t.Errorf("config values not applied: delta=%q strategy=%q", o.Delta, o.Strategy)
	}
	if o.App != "push-gossip" {
		t.Errorf("default lost: app = %q", o.App)
	}
	if _, err := parseOptions([]string{"-config", path + ".missing"}, io.Discard); err == nil {
		t.Error("missing config file accepted")
	}
	if err := os.WriteFile(path, []byte(`{"nope": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseOptions([]string{"-config", path}, io.Discard); err == nil {
		t.Error("unknown config key accepted")
	}
}

// TestConfigFileLosesToExplicitDefaults checks the cases the second parse of
// the command line has to get right: a flag given before -config wins over
// the file too, and so does a flag set explicitly to its default value.
func TestConfigFileLosesToExplicitDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.json")
	if err := os.WriteFile(path, []byte(`{"id": 7, "strategy": "simple:10", "delta": "250ms"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseOptions([]string{"-id", "3", "-strategy", "randomized:8:40", "-config", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != 3 {
		t.Errorf("flag before -config lost to the file: id = %d", o.ID)
	}
	if o.Strategy != defaultOptions().Strategy {
		t.Errorf("explicit default lost to the file: strategy = %q", o.Strategy)
	}
	if o.Delta != "250ms" {
		t.Errorf("file value not applied: delta = %q", o.Delta)
	}
}

// TestBuildApplication builds every application a daemon can run and
// refuses blockcast, whose chain no daemon runs, with the reason.
func TestBuildApplication(t *testing.T) {
	for _, spec := range []string{"push-gossip", "gossip-learning", "chaotic-iteration"} {
		app, err := buildApplication(spec, 8, 2, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if app == nil {
			t.Fatalf("%s: nil application", spec)
		}
	}
	for _, spec := range []string{"blockcast", "bc:32"} {
		_, err := buildApplication(spec, 8, 2, 1, 0)
		if err == nil || !strings.Contains(err.Error(), "run-global") {
			t.Errorf("buildApplication(%q) = %v, want the run-global chain refusal", spec, err)
		}
	}
	if _, err := buildApplication("no-such-app", 4, 0, 1, 0); err == nil {
		t.Error("unknown application accepted")
	}
	if _, err := buildApplication("push-gossip", 4, 9, 1, 0); err == nil {
		t.Error("node id outside cluster accepted")
	}
}

// TestDefaultClusterSize counts the distinct ids of -peers and -id: a peer
// list shared by the whole fleet names the node itself, and a repeated id
// is one node.
func TestDefaultClusterSize(t *testing.T) {
	for _, c := range []struct {
		name  string
		id    int64
		peers string
		size  int
		want  int
	}{
		{"own peers only", 0, "1=a:1,2=b:2", 0, 3},
		{"shared list", 1, "0=a:1,1=b:2,2=c:3", 0, 3},
		{"duplicate id", 0, "1=a:1,1=b:2,2=c:3", 0, 3},
		{"no peers", 0, "", 0, 1},
		{"explicit", 1, "0=a:1,1=b:2", 5, 5},
	} {
		peers, err := parsePeers(c.peers)
		if err != nil {
			t.Fatal(err)
		}
		o := defaultOptions()
		o.ID, o.ClusterSize = c.id, c.size
		if got := clusterSize(o, peers); got != c.want {
			t.Errorf("%s: clusterSize = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBuildDaemonErrors(t *testing.T) {
	o := defaultOptions()
	o.Delta = "not-a-duration"
	if _, err := buildDaemon(o); err == nil {
		t.Error("bad delta accepted")
	}
	o = defaultOptions()
	o.Strategy = "no-such-strategy"
	if _, err := buildDaemon(o); err == nil {
		t.Error("bad strategy accepted")
	}
	o = defaultOptions()
	o.Peers = "nonsense"
	if _, err := buildDaemon(o); err == nil {
		t.Error("bad peers accepted")
	}
}

// TestOpsEndpoint drives the HTTP surface of a single running daemon:
// /healthz flips with the lifecycle, /inject feeds the application, /metrics
// exposes the protocol, transport and latency series, /drain stops the node.
// metricsSeries is every series /metrics serves, by its # TYPE line, in the
// order it serves them: a series added to or removed from the page must be
// added to or removed from this list.
var metricsSeries = []string{
	"tokennode_tokens",
	"tokennode_rounds_total",
	"tokennode_sends_total",
	"tokennode_bytes_sent_total",
	"tokennode_audit_violations",
	"tokennode_received_total",
	"tokennode_useful_received_total",
	"tokennode_tokens_banked_total",
	"tokennode_dropped_incoming_total",
	"tokennode_queue_depth",
	"tokennode_peers",
	"tokennode_app_seq",
	"tokennode_health",
	"tokennode_tick_latency_seconds",
	"tokennode_transport_dials_total",
	"tokennode_transport_dial_failures_total",
	"tokennode_transport_reconnects_total",
	"tokennode_transport_frames_sent_total",
	"tokennode_transport_frames_received_total",
	"tokennode_transport_writes_total",
	"tokennode_transport_bytes_sent_total",
	"tokennode_transport_bytes_received_total",
	"tokennode_transport_sends_shed_total",
	"tokennode_transport_send_errors_total",
	"tokennode_transport_decode_errors_total",
	"tokennode_transport_disconnects_total",
	"tokennode_transport_queue_depth",
	"tokennode_transport_peers_connected",
}

func TestOpsEndpoint(t *testing.T) {
	o := defaultOptions()
	o.ID = 0
	o.ClusterSize = 2
	o.Delta = "20ms"
	o.Seed = 1
	d, err := buildDaemon(o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stopped := make(chan struct{})
	srv := httptest.NewServer(newOpsMux(d, func() { close(stopped) }))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Errorf("healthz before Start = (%d, %q), want 503 starting", code, body)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.Start(ctx)
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "serving") {
		t.Errorf("healthz while serving = (%d, %q), want 200 serving", code, body)
	}

	if code, _ := post("/inject?seq=5"); code != http.StatusOK {
		t.Errorf("inject = %d, want 200", code)
	}
	if code, _ := post("/inject?seq=bad"); code != http.StatusBadRequest {
		t.Errorf("bad inject = %d, want 400", code)
	}

	deadline := time.Now().Add(5 * time.Second)
	for d.TickCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	_, metricsBody := get("/metrics")
	var served []string
	for _, line := range strings.Split(metricsBody, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			served = append(served, strings.Fields(rest)[0])
		}
	}
	if !slices.Equal(served, metricsSeries) {
		t.Errorf("/metrics serves the series\n%s\nwant\n%s", strings.Join(served, "\n"), strings.Join(metricsSeries, "\n"))
	}
	for _, want := range []string{
		`tokennode_sends_total{kind="proactive"}`,
		`tokennode_sends_total{kind="reactive"}`,
		"tokennode_audit_violations 0",
		"tokennode_app_seq 5",
		`tokennode_health{state="serving"} 1`,
		`tokennode_tick_latency_seconds{quantile="0.5"}`,
		"tokennode_tick_latency_seconds_count ",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	if code, _ := post("/drain"); code != http.StatusAccepted {
		t.Errorf("drain = %d, want 202", code)
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not invoke the stop hook")
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "stopped") {
		t.Errorf("healthz after drain = (%d, %q), want 503 stopped", code, body)
	}
}

// TestRunReturnsBindErrorPromptly is the regression test for the hang on an
// unusable -http address: run returns the listen error through its deferred
// Daemon.Close, which used to wait forever for a run loop that never started.
func TestRunReturnsBindErrorPromptly(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	result := make(chan error, 1)
	go func() {
		var stdout, stderr bytes.Buffer
		result <- run([]string{
			"-id", "0", "-cluster-size", "2", "-peers", "1=127.0.0.1:1",
			"-listen", "127.0.0.1:0", "-http", busy.Addr().String(),
		}, &stdout, &stderr)
	}()
	select {
	case err := <-result:
		if err == nil || !strings.Contains(err.Error(), "http listen") {
			t.Errorf("run = %v, want the http listen error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("run did not return on a busy -http port")
	}
}
