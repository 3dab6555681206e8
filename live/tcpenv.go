package live

import (
	"fmt"

	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/transport"
)

// maxTCPEnvNodes bounds a TCP-backed environment: the full mesh costs O(N²)
// peer registrations and every node holds a real listening socket, so this is
// a harness for cross-checking the simulator against real sockets at modest
// scale, not a way to run figure-scale node counts in one process.
const maxTCPEnvNodes = 512

// NewTCPEnv builds a wall-clock environment whose nodes talk over real TCP
// sockets on the loopback interface: one managed endpoint per node, fully
// meshed. The word-encoded payloads of the built-in applications cross the
// wire in the compact binary frame; the endpoints share an empty registry, so
// a boxed payload fails to send. Closing the environment closes every
// endpoint.
//
// cfg.NewTransport must be nil (the endpoints are the point). cfg.Latency
// holds each message on the run loop's scheduler before it enters its socket,
// on top of the real (microsecond-scale) loopback latency; network models
// are realized through SendDelayed as usual.
func NewTCPEnv(cfg EnvConfig) (*Env, error) {
	if cfg.N > maxTCPEnvNodes {
		return nil, fmt.Errorf("live: NewTCPEnv with %d nodes exceeds the %d-node mesh limit", cfg.N, maxTCPEnvNodes)
	}
	if cfg.NewTransport != nil {
		return nil, fmt.Errorf("live: NewTCPEnv with a custom NewTransport")
	}
	registry := transport.NewRegistry()
	eps := make([]*transport.TCPEndpoint, cfg.N)
	closeAll := func() {
		for _, ep := range eps {
			if ep != nil {
				_ = ep.Close()
			}
		}
	}
	for i := range eps {
		ep, err := transport.NewTCPEndpoint(protocol.NodeID(i), "127.0.0.1:0", registry)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("live: endpoint %d: %w", i, err)
		}
		eps[i] = ep
	}
	for i, ep := range eps {
		for j, peer := range eps {
			if i != j {
				ep.AddPeer(protocol.NodeID(j), peer.Addr())
			}
		}
	}
	cfg.NewTransport = func(i int) (transport.Transport, error) { return eps[i], nil }
	env, err := NewEnv(cfg)
	if err != nil {
		closeAll()
		return nil, err
	}
	return env, nil
}
