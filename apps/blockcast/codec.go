package blockcast

import "github.com/szte-dcs/tokenaccount/protocol"

// The wire codec: a blockcast message packs into one 64-bit word under
// protocol.KindBlockcast, so the simulation message path stays
// allocation-free like the paper applications.
//
// Word layout (most significant bits first):
//
//	bits 62–63  message kind: 0 announce, 1 pull, 2 block (3 is invalid)
//	bits 40–61  batch size (22 bits)
//	bits  0–39  block height (40 bits)
//
// Valid messages obey the protocol's structural invariants, and the decoder
// enforces them (a corrupted or adversarial word is rejected, never
// panicking): a pull carries no batch and requests an existing height; a
// block has a height and at least one transaction; an announce of the empty
// chain carries no batch, any other announce names its head block's batch.
const (
	heightBits = 40
	batchBits  = 22

	// MaxHeight is the highest encodable block height: ~10^12 blocks.
	MaxHeight = 1<<heightBits - 1
	// MaxBatch is the largest encodable transaction batch.
	MaxBatch = 1<<batchBits - 1
)

// MsgKind discriminates the three wire messages.
type MsgKind uint8

const (
	// MsgAnnounce advertises the sender's head (gossiped, token-paid).
	MsgAnnounce MsgKind = iota
	// MsgPull requests the block announced at Height (direct, free).
	MsgPull
	// MsgBlock carries the server's head block (direct, token-gated).
	MsgBlock
)

func (k MsgKind) String() string {
	switch k {
	case MsgAnnounce:
		return "announce"
	case MsgPull:
		return "pull"
	case MsgBlock:
		return "block"
	}
	return "invalid"
}

// Msg is a decoded blockcast wire message.
type Msg struct {
	Kind   MsgKind
	Height uint64
	Batch  uint32
}

// valid reports whether the message obeys the structural invariants the
// decoder enforces (see the word layout comment).
func (m Msg) valid() bool {
	if m.Height > MaxHeight || m.Batch > MaxBatch {
		return false
	}
	switch m.Kind {
	case MsgAnnounce:
		// The batch names the head block's size: absent iff the chain is
		// empty.
		return (m.Height == 0) == (m.Batch == 0)
	case MsgPull:
		return m.Height >= 1 && m.Batch == 0
	case MsgBlock:
		return m.Height >= 1 && m.Batch >= 1
	}
	return false
}

// word encodes the message. It panics on a structurally invalid message —
// out-of-range fields or a kind/field combination the protocol never sends —
// because only the package's own code builds messages.
func (m Msg) word() uint64 {
	if !m.valid() {
		panic("blockcast: encoding an invalid message")
	}
	return uint64(m.Kind)<<62 | uint64(m.Batch)<<heightBits | m.Height
}

// Payload wraps the message as a word-encoded protocol payload.
func (m Msg) Payload() protocol.Payload {
	return protocol.WordPayload(protocol.KindBlockcast, m.word())
}

// msgFromWord decodes a wire word. It rejects structurally invalid words —
// the unused kind, out-of-range combinations like a pull with a batch or a
// block without one — by returning ok=false; it never panics, whatever the
// word (the fuzz target pins this).
func msgFromWord(word uint64) (Msg, bool) {
	m := Msg{
		Kind:   MsgKind(word >> 62),
		Batch:  uint32(word >> heightBits & MaxBatch),
		Height: word & MaxHeight,
	}
	if !m.valid() {
		return Msg{}, false
	}
	return m, true
}

// MsgFromPayload decodes a blockcast message from its word form, which every
// runtime and transport delivers unchanged.
func MsgFromPayload(p protocol.Payload) (Msg, bool) {
	if p.Kind != protocol.KindBlockcast {
		return Msg{}, false
	}
	return msgFromWord(p.Word)
}
