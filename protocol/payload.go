package protocol

// PayloadKind discriminates the compact message representation of Payload.
// The zero kind is the generic boxed path; the non-zero kinds are word-sized
// encodings for the pointer-free messages of the paper's three demonstrator
// applications, so that the simulator's steady-state message path never
// boxes a payload into an interface (and therefore never allocates).
type PayloadKind uint32

const (
	// KindBoxed is the generic representation: the payload value lives in
	// Payload.Box as an interface. Custom applications and the daemon's
	// control messages use this path; it costs one heap allocation per
	// message, exactly like the pre-Payload `any` plumbing.
	KindBoxed PayloadKind = iota
	// KindModelAge is the gossip learning walker message: Word holds the
	// model age (gossiplearning.ModelMessage.Age).
	KindModelAge
	// KindUpdateSeq is the push gossip message: Word holds the update
	// sequence number as a two's-complement int64
	// (pushgossip.Update.Seq, which may be -1 for "no update yet").
	KindUpdateSeq
	// KindWeight is the chaotic power iteration message: Word holds the
	// IEEE-754 bits of the weight (poweriter.WeightMessage.X).
	KindWeight
	// KindBlockcast is the block-dissemination message of apps/blockcast:
	// Word packs the message kind (bits 62–63: 0 announce, 1 pull, 2 block),
	// the transaction batch size (bits 40–61) and the block height (bits
	// 0–39); see blockcast.Msg. It is the one kind whose messages differ in
	// wire size (see PayloadSize).
	KindBlockcast
)

// The wire-size model of KindBlockcast, in bytes. The numbers follow the
// shape of a ByzCoin conode's traffic: announces and pulls are small
// fixed-size control messages (a height, a hash, a signature), while a block
// weighs its header plus its batched transactions, each the size of a
// typical signed transfer. The absolute values matter less than the ratio:
// blocks are two to three orders of magnitude heavier than control traffic,
// which is what makes byte-level accounting diverge from message counting.
const (
	blockcastAnnounceBytes    = 96
	blockcastPullBytes        = 40
	blockcastBlockHeaderBytes = 200
	blockcastTxBytes          = 250
	blockcastBatchMask        = 1<<22 - 1
)

// Payload is the message currency of the framework: what an Application
// creates, a Sender and every transport carry unchanged, and an Application
// consumes. It is a plain value — for the word-encoded kinds it is
// pointer-free, so storing it in the simulator's event queue or passing it
// through a Sender allocates nothing. The invariant is that Box is non-nil
// exactly when Kind is KindBoxed.
type Payload struct {
	// Kind selects the representation.
	Kind PayloadKind
	// Word is the payload for the word-encoded kinds; unused for KindBoxed.
	Word uint64
	// Box is the payload value for KindBoxed; nil for the word kinds.
	Box any
}

// BoxPayload wraps an arbitrary value in a Payload. This is the generic path
// for custom applications whose messages do not fit in a word.
func BoxPayload(v any) Payload { return Payload{Kind: KindBoxed, Box: v} }

// WordPayload builds a word-encoded payload of the given kind.
func WordPayload(kind PayloadKind, word uint64) Payload {
	return Payload{Kind: kind, Word: word}
}

// PayloadSize returns the modeled wire size of the payload in bytes, the unit
// of the runtime's byte accounting. Only KindBlockcast weighs its messages:
// an announce, a pull, or a block's header plus its batch of transactions,
// read from the word's kind and batch fields alone (the unused kind 3 weighs
// one byte). Every other kind, boxed payloads included, weighs one byte, so
// the paper's one-word applications read byte counts equal to their message
// counts. It must stay small enough to inline into runtime.Host.Send, which
// calls it on every message (TestHostSendInlinesPayloadSize checks).
func PayloadSize(p Payload) int {
	if p.Kind != KindBlockcast {
		return 1
	}
	switch p.Word >> 62 {
	case 0:
		return blockcastAnnounceBytes
	case 1:
		return blockcastPullBytes
	case 2:
		return blockcastBlockHeaderBytes + blockcastTxBytes*int(p.Word>>40&blockcastBatchMask)
	}
	return 1
}
