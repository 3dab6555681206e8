package protocol

import (
	"reflect"
	"sync"
)

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
	// Word packs the message kind (announce/pull/block), the block height
	// and the transaction batch size (blockcast.Msg).
	KindBlockcast
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

var (
	sizerMu    sync.RWMutex
	wordSizers = map[PayloadKind]func(word uint64) int{}
)

// RegisterPayloadSizer installs the wire-size hint of a word-encoded kind:
// given a payload word, it returns the message's wire size in bytes. The
// runtime's byte accounting uses it; kinds without a sizer count as one byte,
// so the paper's one-word applications keep their historical (message-count)
// numbers. A kind belongs to exactly one owner: registering a different
// sizer for an already-claimed kind panics, so a kind collision between two
// word-encoded applications fails loudly at init. Re-registering the same
// function is a no-op (the same init may run again under -count=N test
// reruns).
func RegisterPayloadSizer(kind PayloadKind, size func(word uint64) int) {
	if kind == KindBoxed || size == nil {
		panic("protocol: RegisterPayloadSizer needs a word kind and a non-nil sizer")
	}
	sizerMu.Lock()
	defer sizerMu.Unlock()
	if prev, ok := wordSizers[kind]; ok {
		if reflect.ValueOf(prev).Pointer() != reflect.ValueOf(size).Pointer() {
			panic("protocol: payload kind already claimed by a different sizer")
		}
		return
	}
	wordSizers[kind] = size
}

// PayloadSizerTable returns a dense snapshot of the registered sizers,
// indexed by kind (nil entries mean "no sizer: size 1"). Hosts snapshot the
// table once at assembly so the per-message lookup on the send hot path is a
// bounds check and an indexed load, with no lock and no map access.
func PayloadSizerTable() []func(word uint64) int {
	sizerMu.RLock()
	defer sizerMu.RUnlock()
	max := PayloadKind(0)
	for kind := range wordSizers {
		if kind > max {
			max = kind
		}
	}
	if len(wordSizers) == 0 {
		return nil
	}
	table := make([]func(word uint64) int, max+1)
	for kind, size := range wordSizers {
		table[kind] = size
	}
	return table
}

// PayloadSize returns the wire-size hint of the payload: the registered
// sizer's answer for its word, or 1 when no sizer is registered for the kind
// (including every boxed payload). It is the slow-path twin of the Host's
// snapshot table, for transports and tests.
func PayloadSize(p Payload) int {
	sizerMu.RLock()
	size := wordSizers[p.Kind]
	sizerMu.RUnlock()
	if size == nil {
		return 1
	}
	return size(p.Word)
}
