// Command tokennode runs one token account node as a long-lived daemon: the
// deployable unit of the live stack. Each process hosts one protocol node on
// a runtime.Host behind a managed TCP endpoint (live.Daemon), with the §3.4
// rate-bound audit always on, plus an HTTP ops endpoint with
// Prometheus-text metrics, a health probe, an update injector and a graceful
// drain hook.
//
// A three-node localhost cluster:
//
//	tokennode -id 0 -listen 127.0.0.1:7000 -http 127.0.0.1:8000 -peers 1=127.0.0.1:7001,2=127.0.0.1:7002 -cluster-size 3
//	tokennode -id 1 -listen 127.0.0.1:7001 -http 127.0.0.1:8001 -peers 0=127.0.0.1:7000,2=127.0.0.1:7002 -cluster-size 3
//	tokennode -id 2 -listen 127.0.0.1:7002 -http 127.0.0.1:8002 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001 -cluster-size 3
//
// Applications and strategies come from the experiment parsers, so the
// simulator's specs ("push-gossip", "randomized:8:40", ...) describe a
// deployment. Every application spec but blockcast's runs: blockcast's chain
// is run-global and a one-node daemon has none (see buildApplication).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/live"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
)

// nodeOptions collects every tunable of one daemon process. JSON tags double
// as the config-file schema (-config).
type nodeOptions struct {
	ID          int64  `json:"id"`
	Listen      string `json:"listen"`
	HTTP        string `json:"http"`
	Peers       string `json:"peers"`
	App         string `json:"app"`
	Strategy    string `json:"strategy"`
	ClusterSize int    `json:"cluster_size"`
	Delta       string `json:"delta"`
	Tokens      int    `json:"tokens"`
	Seed        uint64 `json:"seed"`
	OverlaySeed uint64 `json:"overlay_seed"`
	Queue       int    `json:"queue"`
	OverlayK    int    `json:"overlay_k"`
}

// drainTimeout bounds a graceful drain, whether triggered by a signal or by
// the ops endpoint's POST /drain.
const drainTimeout = 5 * time.Second

func defaultOptions() nodeOptions {
	return nodeOptions{
		Listen:   "127.0.0.1:0",
		HTTP:     "",
		App:      "push-gossip",
		Strategy: "randomized:8:40",
		Delta:    "1s",
	}
}

func defineFlags(fs *flag.FlagSet, o *nodeOptions) *string {
	configPath := fs.String("config", "", "JSON config file; explicit flags override its values")
	fs.Int64Var(&o.ID, "id", o.ID, "node identity (unique per deployment)")
	fs.StringVar(&o.Listen, "listen", o.Listen, "TCP listen address for the protocol")
	fs.StringVar(&o.HTTP, "http", o.HTTP, "HTTP ops listen address (empty disables the ops endpoint)")
	fs.StringVar(&o.Peers, "peers", o.Peers, "seed peers as comma-separated id=host:port entries")
	fs.StringVar(&o.App, "app", o.App, "application spec (as tokensim -app, e.g. push-gossip)")
	fs.StringVar(&o.Strategy, "strategy", o.Strategy, "strategy spec (as tokensim -strategy, e.g. randomized:8:40)")
	fs.IntVar(&o.ClusterSize, "cluster-size", o.ClusterSize, "total nodes in the deployment (default: the distinct ids of -peers and -id)")
	fs.StringVar(&o.Delta, "delta", o.Delta, "proactive period Δ (Go duration)")
	fs.IntVar(&o.Tokens, "tokens", o.Tokens, "initial token balance")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "this node's random seed (0 derives a process-unique seed)")
	fs.Uint64Var(&o.OverlaySeed, "overlay-seed", o.OverlaySeed, "deployment-wide overlay construction seed; MUST be identical on every node of the cluster")
	fs.IntVar(&o.Queue, "queue", o.Queue, "incoming message queue bound (0 = default)")
	fs.IntVar(&o.OverlayK, "overlay-k", o.OverlayK, "overlay out-degree for app construction (0 = min(default, cluster-1))")
	return configPath
}

// parseOptions reads the command line over the defaults. With -config, the
// file is decoded into the defaults and the command line parsed again on
// top, so explicit flags win over the file.
func parseOptions(args []string, stderr io.Writer) (nodeOptions, error) {
	o := defaultOptions()
	fs := flag.NewFlagSet("tokennode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := defineFlags(fs, &o)
	if err := fs.Parse(args); err != nil || *configPath == "" {
		return o, err
	}
	data, err := os.ReadFile(*configPath)
	if err != nil {
		return o, err
	}
	o = defaultOptions()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return o, fmt.Errorf("config %s: %w", *configPath, err)
	}
	return o, fs.Parse(args)
}

// parsePeers parses "1=127.0.0.1:7001,2=host:7002" into peer addresses.
func parsePeers(s string) ([]live.PeerAddr, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var peers []live.PeerAddr
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("peer entry %q: want id=host:port", entry)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(id), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("peer entry %q: bad id: %v", entry, err)
		}
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("peer entry %q: empty address", entry)
		}
		peers = append(peers, live.PeerAddr{ID: protocol.NodeID(n), Addr: addr})
	}
	return peers, nil
}

// buildApplication resolves an application spec through
// experiment.ParseApplication and instantiates this node's application. The
// driver's run is built over the whole cluster (NewApp's contract is one
// call per node in node order), and the instance of the daemon's own slot is
// kept.
//
// overlaySeed must be the deployment-wide -overlay-seed, NOT the node's own
// -seed: every node rebuilds the same overlay graph locally, so a per-node
// seed would give each process a different neighbor structure.
//
// Blockcast is refused: its chain, proposer rotation and commit check run in
// the experiment run's Start over the whole node set, which a daemon never
// calls, so a blockcast daemon would gossip announces of blocks nobody
// proposes.
func buildApplication(spec string, clusterSize int, node int64, overlaySeed uint64, overlayK int) (protocol.Application, error) {
	driver, err := experiment.ParseApplication(spec)
	if err != nil {
		return nil, err
	}
	if driver.Name() == experiment.Blockcast.Name() {
		return nil, fmt.Errorf("application %s cannot run on a daemon: blockcast's chain is run-global, and a one-node daemon has none", spec)
	}
	if node < 0 || node >= int64(clusterSize) {
		return nil, fmt.Errorf("node id %d outside the cluster [0, %d)", node, clusterSize)
	}
	if overlayK == 0 {
		overlayK = experiment.DefaultOverlayK
		if max := clusterSize - 1; overlayK > max {
			overlayK = max
		}
	}
	cfg := experiment.Config{App: driver, N: clusterSize, OverlayK: overlayK}.WithDefaults()
	graph, err := driver.BuildOverlay(cfg, overlaySeed)
	if err != nil {
		return nil, fmt.Errorf("application %s: overlay: %w", spec, err)
	}
	run, err := driver.NewRun(cfg, graph)
	if err != nil {
		return nil, fmt.Errorf("application %s: %w", spec, err)
	}
	var own protocol.Application
	for i := 0; i < clusterSize; i++ {
		app := run.NewApp(i)
		if int64(i) == node {
			own = app
		}
	}
	if own == nil {
		return nil, fmt.Errorf("application %s: NewApp(%d) returned nil", spec, node)
	}
	return own, nil
}

// clusterSize returns -cluster-size, or by default the number of distinct
// ids among the peers and the node itself: a whole fleet may share one peer
// list, whose entry for the node itself the daemon skips.
func clusterSize(o nodeOptions, peers []live.PeerAddr) int {
	if o.ClusterSize != 0 {
		return o.ClusterSize
	}
	ids := map[protocol.NodeID]bool{protocol.NodeID(o.ID): true}
	for _, p := range peers {
		ids[p.ID] = true
	}
	return len(ids)
}

// buildDaemon assembles the live daemon from the resolved options.
func buildDaemon(o nodeOptions) (*live.Daemon, error) {
	peers, err := parsePeers(o.Peers)
	if err != nil {
		return nil, err
	}
	delta, err := time.ParseDuration(o.Delta)
	if err != nil {
		return nil, fmt.Errorf("delta %q: %w", o.Delta, err)
	}
	spec, err := experiment.ParseStrategySpec(o.Strategy)
	if err != nil {
		return nil, err
	}
	strategy, err := spec.Build()
	if err != nil {
		return nil, err
	}
	app, err := buildApplication(o.App, clusterSize(o, peers), o.ID, o.OverlaySeed, o.OverlayK)
	if err != nil {
		return nil, err
	}
	return live.NewDaemon(live.DaemonConfig{
		ID:            protocol.NodeID(o.ID),
		Listen:        o.Listen,
		Seeds:         peers,
		Strategy:      strategy,
		Application:   app,
		Delta:         delta,
		InitialTokens: o.Tokens,
		Seed:          o.Seed,
		QueueSize:     o.Queue,
	})
}

// run is main without os.Exit, for tests.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseOptions(args, stderr)
	if err != nil {
		return err
	}
	d, err := buildDaemon(o)
	if err != nil {
		return err
	}
	defer d.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var httpLn net.Listener
	if o.HTTP != "" {
		httpLn, err = net.Listen("tcp", o.HTTP)
		if err != nil {
			return fmt.Errorf("http listen %s: %w", o.HTTP, err)
		}
	}
	d.Start(ctx)
	fmt.Fprintf(stdout, "tokennode id=%d listen=%s", o.ID, d.Endpoint().Addr())
	var httpSrv *http.Server
	if httpLn != nil {
		httpSrv = &http.Server{Handler: newOpsMux(d, stop)}
		go func() { _ = httpSrv.Serve(httpLn) }()
		fmt.Fprintf(stdout, " http=%s", httpLn.Addr())
	}
	fmt.Fprintln(stdout)

	<-ctx.Done()
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	d.Drain(drainCtx)
	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutCtx)
	}
	var tokens int
	d.WithHost(func(h *runtime.Host) { tokens = h.Node(0).Tokens() })
	fmt.Fprintf(stdout, "tokennode id=%d stopped tokens=%d\n", o.ID, tokens)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "tokennode:", err)
		}
		os.Exit(1)
	}
}
