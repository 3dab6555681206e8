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

func TestRegisterPayloadSizer(t *testing.T) {
	const kind = PayloadKind(1003) // private to this test
	// Unregister the kind afterwards, so a rerun (-count=2) starts without it.
	t.Cleanup(func() {
		sizerMu.Lock()
		delete(wordSizers, kind)
		sizerMu.Unlock()
	})
	if got := PayloadSize(WordPayload(kind, 9)); got != 1 {
		t.Errorf("PayloadSize without sizer = %d, want 1", got)
	}
	sizer := func(word uint64) int { return int(word) + 10 }
	RegisterPayloadSizer(kind, sizer)
	RegisterPayloadSizer(kind, sizer) // same sizer: no-op
	if got := PayloadSize(WordPayload(kind, 9)); got != 19 {
		t.Errorf("PayloadSize = %d, want 19", got)
	}
	table := PayloadSizerTable()
	if len(table) <= int(kind) || table[kind] == nil {
		t.Fatalf("sizer table has no entry for kind %d (len %d)", kind, len(table))
	}
	if got := table[kind](9); got != 19 {
		t.Errorf("table sizer = %d, want 19", got)
	}
	if table[KindBoxed] != nil {
		t.Error("table has a sizer for KindBoxed")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a different sizer for a claimed kind did not panic")
		}
	}()
	RegisterPayloadSizer(kind, func(word uint64) int { return 1 })
}

func TestRegisterPayloadSizerValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"boxed kind": func() { RegisterPayloadSizer(KindBoxed, func(uint64) int { return 1 }) },
		"nil sizer":  func() { RegisterPayloadSizer(KindWeight, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
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
