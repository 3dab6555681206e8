package blockcast

import (
	"testing"

	"github.com/szte-dcs/tokenaccount/protocol"
)

func TestMsgWordRoundTrip(t *testing.T) {
	cases := []Msg{
		{Kind: MsgAnnounce, Height: 0, Batch: 0},
		{Kind: MsgAnnounce, Height: 1, Batch: 1},
		{Kind: MsgAnnounce, Height: 12345, Batch: 64},
		{Kind: MsgAnnounce, Height: MaxHeight, Batch: MaxBatch},
		{Kind: MsgPull, Height: 1, Batch: 0},
		{Kind: MsgPull, Height: MaxHeight, Batch: 0},
		{Kind: MsgBlock, Height: 1, Batch: 1},
		{Kind: MsgBlock, Height: 999, Batch: MaxBatch},
	}
	for _, m := range cases {
		got, ok := msgFromWord(m.word())
		if !ok || got != m {
			t.Errorf("round trip of %+v: got %+v, ok=%v", m, got, ok)
		}
		if got, ok := MsgFromPayload(m.Payload()); !ok || got != m {
			t.Errorf("payload round trip of %+v: got %+v, ok=%v", m, got, ok)
		}
		// No transport boxes a message, so a boxed payload is foreign.
		if _, ok := MsgFromPayload(protocol.BoxPayload(m)); ok {
			t.Errorf("boxed %+v decoded", m)
		}
	}
}

// TestMsgFromWordRejectsInvalid pins the fuzz-derived hardening contract:
// structurally invalid words decode to ok=false, never a panic and never a
// half-valid message.
func TestMsgFromWordRejectsInvalid(t *testing.T) {
	invalid := map[string]uint64{
		"unused kind 3":          3 << 62,
		"unused kind, max field": 3<<62 | MaxHeight,
		"pull with batch":        Msg{Kind: MsgPull, Height: 1}.word() | 1<<heightBits,
		"pull of height 0":       1 << 62,
		"block of height 0":      Msg{Kind: MsgBlock, Height: 1, Batch: 1}.word() &^ uint64(MaxHeight),
		"block without batch":    Msg{Kind: MsgBlock, Height: 7, Batch: 1}.word() &^ (uint64(MaxBatch) << heightBits),
		"genesis announce+batch": Msg{Kind: MsgAnnounce, Height: 1, Batch: 1}.word() &^ uint64(MaxHeight),
		"announce without batch": Msg{Kind: MsgAnnounce, Height: 9, Batch: 2}.word() &^ (uint64(MaxBatch) << heightBits),
	}
	for name, word := range invalid {
		if m, ok := msgFromWord(word); ok {
			t.Errorf("%s (word %#x) decoded to %+v, want rejection", name, word, m)
		}
		if m, ok := MsgFromPayload(protocol.WordPayload(protocol.KindBlockcast, word)); ok {
			t.Errorf("%s: payload of word %#x decoded to %+v, want rejection", name, word, m)
		}
	}
}

func TestMsgWordPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("encoding an invalid message did not panic")
		}
	}()
	Msg{Kind: MsgPull, Height: 1, Batch: 1}.word()
}

// TestPayloadSize checks that protocol.PayloadSize reads this codec's word
// layout: every message weighs what its kind and batch say.
func TestPayloadSize(t *testing.T) {
	cases := []struct {
		name string
		m    Msg
		want int
	}{
		{"genesis announce", Msg{Kind: MsgAnnounce, Height: 0, Batch: 0}, 96},
		{"announce", Msg{Kind: MsgAnnounce, Height: 5, Batch: 64}, 96},
		{"pull", Msg{Kind: MsgPull, Height: 5}, 40},
		{"block of 1", Msg{Kind: MsgBlock, Height: 5, Batch: 1}, 200 + 250},
		{"block of 64", Msg{Kind: MsgBlock, Height: 5, Batch: 64}, 200 + 64*250},
		{"largest block", Msg{Kind: MsgBlock, Height: MaxHeight, Batch: MaxBatch}, 200 + MaxBatch*250},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := protocol.PayloadSize(c.m.Payload()); got != c.want {
				t.Errorf("PayloadSize(%+v) = %d, want %d", c.m, got, c.want)
			}
		})
	}
	t.Run("unused kind", func(t *testing.T) {
		if got := protocol.PayloadSize(protocol.WordPayload(protocol.KindBlockcast, 3<<62)); got != 1 {
			t.Errorf("PayloadSize of the unused kind = %d, want 1", got)
		}
	})
}

func TestMsgKindString(t *testing.T) {
	for kind, want := range map[MsgKind]string{
		MsgAnnounce: "announce", MsgPull: "pull", MsgBlock: "block", 3: "invalid",
	} {
		if got := kind.String(); got != want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
}

// FuzzMsgWord is the codec fuzz target of the CI smoke step: decoding any
// word must never panic, and every accepted word must round-trip
// bit-for-bit through re-encoding (the codec is a bijection between valid
// words and valid messages). The size model (protocol.PayloadSize) must
// stay positive either way.
func FuzzMsgWord(f *testing.F) {
	f.Add(uint64(0))
	f.Add(Msg{Kind: MsgAnnounce, Height: 12345, Batch: 64}.word())
	f.Add(Msg{Kind: MsgPull, Height: 1}.word())
	f.Add(Msg{Kind: MsgBlock, Height: MaxHeight, Batch: MaxBatch}.word())
	f.Add(uint64(3) << 62)
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, word uint64) {
		m, ok := msgFromWord(word)
		if ok {
			if m.word() != word {
				t.Errorf("accepted word %#x re-encodes to %#x", word, m.word())
			}
		} else if m != (Msg{}) {
			t.Errorf("rejected word %#x left a partial message %+v", word, m)
		}
		if size := protocol.PayloadSize(protocol.WordPayload(protocol.KindBlockcast, word)); size < 1 {
			t.Errorf("PayloadSize(%#x) = %d, want ≥ 1", word, size)
		}
		if pm, pok := MsgFromPayload(protocol.WordPayload(protocol.KindBlockcast, word)); pok != ok || pm != m {
			t.Errorf("MsgFromPayload = %+v, %v disagrees with msgFromWord = %+v, %v for word %#x", pm, pok, m, ok, word)
		}
	})
}
