// Package transport provides the message transport of the real-time token
// account service (live): a TCP transport with managed per-peer connections —
// bounded outbound queues that shed load instead of blocking, on-demand
// dialling with capped exponential backoff and jitter, and operational
// counters exported through Stats. (Nodes that share one process need no
// transport: live.Env delivers their messages on its own scheduler.)
//
// Every transport carries protocol.Payload, the message currency of the
// simulator, unchanged: what one endpoint's SendPayload takes, the
// destination's PayloadHandler receives with the same Kind, Word and Box. The
// TCP wire carries length-prefixed frames in two families: compact binary
// word frames for word-encoded payloads, and JSON envelope frames for boxed
// payloads whose type is registered in a Registry (see codec.go), so the
// simulator's zero-alloc payload representation and its byte accounting
// carry over to real sockets.
//
// The system model of the paper assumes a reliable transfer protocol between
// online nodes; the TCP transport delivers messages reliably while the
// destination endpoint is open and drops them otherwise (the token account
// protocol tolerates drops by design).
package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// Transport delivers payloads between token account nodes.
type Transport interface {
	PayloadSender
	PayloadReceiver

	// Close releases resources and stops delivery.
	Close() error
}

// PayloadSender sends payloads. SendPayload delivers the payload to the node
// with the given ID. Errors are returned only for local problems (closed
// transport, unknown encoding); a missing or crashed destination is not an
// error, the message is silently dropped as the protocol expects.
type PayloadSender interface {
	SendPayload(to protocol.NodeID, p protocol.Payload) error
}

// PayloadHandler consumes an incoming payload. It runs on the transport's
// delivery goroutines: over TCP, one per incoming connection.
type PayloadHandler func(from protocol.NodeID, p protocol.Payload)

// PayloadReceiver installs the callback invoked for every received payload.
// It must be called before any message is received.
type PayloadReceiver interface {
	SetPayloadHandler(h PayloadHandler)
}

// Handler consumes an incoming payload as a plain value; see
// TCPEndpoint.SetHandler.
type Handler func(from protocol.NodeID, payload any)

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// Registry translates typed payloads to and from a wire representation. A
// payload type is registered under a unique name together with a decoder.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]func(json.RawMessage) (any, error)
	byType map[string]string // concrete type string -> name
}

// NewRegistry returns an empty payload registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]func(json.RawMessage) (any, error)),
		byType: make(map[string]string),
	}
}

// Register associates a payload name with a prototype value. The prototype's
// concrete type is used for encoding lookups, and incoming messages with this
// name are decoded into a new value of the same type.
func Register[T any](r *Registry, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var zero T
	r.byName[name] = func(raw json.RawMessage) (any, error) {
		var v T
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, fmt.Errorf("transport: decoding %q: %w", name, err)
		}
		return v, nil
	}
	r.byType[fmt.Sprintf("%T", zero)] = name
}

// encode wraps a payload into a wire envelope.
func (r *Registry) encode(from protocol.NodeID, payload any) ([]byte, error) {
	r.mu.RLock()
	name, ok := r.byType[fmt.Sprintf("%T", payload)]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: payload type %T not registered", payload)
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding %q: %w", name, err)
	}
	return json.Marshal(wireEnvelope{From: int(from), Type: name, Body: body})
}

// decode unwraps a wire envelope into a typed payload.
func (r *Registry) decode(data []byte) (protocol.NodeID, any, error) {
	var env wireEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return 0, nil, fmt.Errorf("transport: decoding envelope: %w", err)
	}
	r.mu.RLock()
	dec, ok := r.byName[env.Type]
	r.mu.RUnlock()
	if !ok {
		return 0, nil, fmt.Errorf("transport: unknown payload type %q", env.Type)
	}
	payload, err := dec(env.Body)
	if err != nil {
		return 0, nil, err
	}
	return protocol.NodeID(env.From), payload, nil
}

// wireEnvelope is the JSON wire format of one message.
type wireEnvelope struct {
	From int             `json:"from"`
	Type string          `json:"type"`
	Body json.RawMessage `json:"body"`
}
