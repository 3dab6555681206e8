package protocol

import "testing"

func TestBoxPayloadRoundTrip(t *testing.T) {
	type custom struct{ A, B int }
	p := BoxPayload(custom{1, 2})
	if p.Kind != KindBoxed {
		t.Fatalf("Kind = %v, want KindBoxed", p.Kind)
	}
	if got, ok := p.Box.(custom); !ok || got != (custom{1, 2}) {
		t.Fatalf("Box = %#v", p.Box)
	}
}

func TestWordPayload(t *testing.T) {
	p := WordPayload(KindUpdateSeq, 42)
	if p.Kind != KindUpdateSeq || p.Word != 42 || p.Box != nil {
		t.Fatalf("WordPayload = %+v", p)
	}
}

// TestPayloadSize pins the wire-size model: blockcast words weigh what
// their kind and batch fields say, whatever the height, and every other kind
// weighs one byte.
func TestPayloadSize(t *testing.T) {
	blockcast := func(kind, batch, height uint64) Payload {
		return WordPayload(KindBlockcast, kind<<62|batch<<40|height)
	}
	for _, c := range []struct {
		name string
		p    Payload
		want int
	}{
		{"boxed", BoxPayload(struct{}{}), 1},
		{"model age", WordPayload(KindModelAge, 1<<62|5<<40), 1},
		{"update seq", WordPayload(KindUpdateSeq, ^uint64(0)), 1},
		{"weight", WordPayload(KindWeight, 2<<62), 1},
		{"empty announce", blockcast(0, 0, 0), 96},
		{"announce", blockcast(0, 64, 5), 96},
		{"pull", blockcast(1, 0, 5), 40},
		{"block of 1", blockcast(2, 1, 5), 200 + 250},
		{"block of 64", blockcast(2, 64, 1<<40-1), 200 + 64*250},
		{"largest block", blockcast(2, 1<<22-1, 1), 200 + (1<<22-1)*250},
		{"unused kind 3", blockcast(3, 64, 5), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := PayloadSize(c.p); got != c.want {
				t.Errorf("PayloadSize(%+v) = %d, want %d", c.p, got, c.want)
			}
		})
	}
}

// TestWordPayloadIsAllocationFree pins the point of the word encoding:
// creating and inspecting a word payload never touches the heap.
func TestWordPayloadIsAllocationFree(t *testing.T) {
	sum := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		p := WordPayload(KindUpdateSeq, 7)
		sum += p.Word
	})
	if allocs != 0 {
		t.Errorf("WordPayload allocates %.1f, want 0", allocs)
	}
}
