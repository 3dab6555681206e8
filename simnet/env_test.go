package simnet

import (
	"math"
	"testing"

	"github.com/szte-dcs/tokenaccount/protocol"
)

// TestEnvLifecycleOutOfRange pins the bounds behaviour of the online set:
// a stray node id (from a buggy scenario or an oversized trace) must degrade
// to "offline, no-op" instead of panicking mid-run.
func TestEnvLifecycleOutOfRange(t *testing.T) {
	env, err := NewEnv(EnvConfig{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	online := env.Availability()
	for _, node := range []int{-1, 4, 1 << 20} {
		if online.Online(node) {
			t.Errorf("Online(%d) = true for an out-of-range id", node)
		}
		online.Set(node, true)  // must not panic
		online.Set(node, false) // must not panic
		if online.Online(node) {
			t.Errorf("Set(%d, true) materialized an out-of-range node", node)
		}
	}
	if !online.Online(0) || !online.Online(3) {
		t.Error("in-range nodes must stay online")
	}
}

// TestEnvSendDelayed checks that the per-message delay of SendDelayed lands the delivery at exactly now+delay of virtual time,
// independently of the environment's fixed TransferDelay.
func TestEnvSendDelayed(t *testing.T) {
	env, err := NewEnv(EnvConfig{N: 2, Seed: 1, TransferDelay: 100})
	if err != nil {
		t.Fatal(err)
	}
	var deliveredAt []float64
	env.SetDeliver(func(from, to protocol.NodeID, payload protocol.Payload) {
		deliveredAt = append(deliveredAt, env.Now())
	})
	payload := protocol.BoxPayload("m")
	env.SendDelayed(0, 1, payload, 5)
	env.SendDelayed(0, 1, payload, 2.5)
	env.SendDelayed(0, 1, payload, -3) // negative delays clamp to "now"
	env.engine.RunUntil(4)
	if len(deliveredAt) != 2 {
		t.Fatalf("delivered %d messages before t=4, want 2 (clamped + 2.5s)", len(deliveredAt))
	}
	if deliveredAt[0] != 0 || deliveredAt[1] != 2.5 {
		t.Errorf("deliveries at %v, want [0 2.5]", deliveredAt)
	}
	env.engine.RunUntil(10)
	if len(deliveredAt) != 3 || deliveredAt[2] != 5 {
		t.Errorf("deliveries at %v, want third at exactly 5", deliveredAt)
	}
}

// TestEnvSendUsesTransferDelay pins that the plain Send path still applies
// the environment's fixed delay.
func TestEnvSendUsesTransferDelay(t *testing.T) {
	env, err := NewEnv(EnvConfig{N: 2, Seed: 1, TransferDelay: 1.728})
	if err != nil {
		t.Fatal(err)
	}
	var at float64
	env.SetDeliver(func(protocol.NodeID, protocol.NodeID, protocol.Payload) { at = env.Now() })
	env.Send(0, 1, protocol.BoxPayload("m"))
	env.engine.RunUntil(math.Inf(1))
	if at != 1.728 {
		t.Errorf("delivery at %v, want 1.728", at)
	}
}

// TestNewEnvTransferDelay checks that NewEnv accepts a finite non-negative
// transfer delay and rejects anything else: the engine would silently read
// NaN as zero delay and +Inf as a message never delivered.
func TestNewEnvTransferDelay(t *testing.T) {
	tests := []struct {
		delay float64
		ok    bool
	}{
		{0, true},
		{1.728, true},
		{-1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	}
	for _, tc := range tests {
		_, err := NewEnv(EnvConfig{N: 2, TransferDelay: tc.delay})
		if (err == nil) != tc.ok {
			t.Errorf("NewEnv(TransferDelay: %v): err = %v, want ok = %v", tc.delay, err, tc.ok)
		}
	}
}
