package live

import (
	"sync"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/protocol"
)

// TestPeerTableSelectsUniformlyAmongMembers checks the daemon's peer
// selector: every draw is a current member, whatever node index the slab
// passes, and the members are hit roughly uniformly.
func TestPeerTableSelectsUniformlyAmongMembers(t *testing.T) {
	pt := newPeerTable()
	for id := protocol.NodeID(10); id < 15; id++ {
		pt.add(id)
	}
	src := rng.New(3)
	counts := map[protocol.NodeID]int{}
	for i := 0; i < 5000; i++ {
		p, ok := pt.SelectPeerOf(i%7, src)
		if !ok {
			t.Fatal("SelectPeerOf failed with members present")
		}
		if p < 10 || p >= 15 {
			t.Fatalf("selected %d, which is not a member", p)
		}
		counts[p]++
	}
	// Five members, expected 1000 draws each.
	if len(counts) != 5 {
		t.Fatalf("only %d distinct members selected, want 5", len(counts))
	}
	for p, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("member %d selected %d times, want ≈ 1000", p, c)
		}
	}
}

// TestPeerTableFollowsMembership checks that selection tracks joins and
// leaves as they happen, and that an empty table reports failure without
// drawing from the node's generator.
func TestPeerTableFollowsMembership(t *testing.T) {
	pt := newPeerTable()
	src := rng.New(8)
	before := *src
	if p, ok := pt.SelectPeerOf(0, src); ok || p != protocol.NoNode {
		t.Fatalf("empty table selected (%d, %v), want (NoNode, false)", p, ok)
	}
	if *src != before {
		t.Error("empty table drew from the generator")
	}
	for _, id := range []protocol.NodeID{1, 2, 3} {
		if !pt.add(id) {
			t.Fatalf("add(%d) reported a duplicate", id)
		}
	}
	if pt.add(2) {
		t.Error("second add(2) reported a new peer")
	}
	if !pt.remove(2) || pt.remove(2) {
		t.Error("remove(2) must succeed once, then report absence")
	}
	if pt.size() != 2 || len(pt.list()) != 2 {
		t.Fatalf("size %d, list %v after removing one of three", pt.size(), pt.list())
	}
	for i := 0; i < 500; i++ {
		if p, ok := pt.SelectPeerOf(0, src); !ok || (p != 1 && p != 3) {
			t.Fatalf("selected (%d, %v) after 2 left, want 1 or 3", p, ok)
		}
	}
	pt.remove(1)
	pt.remove(3)
	pt.add(9)
	for i := 0; i < 50; i++ {
		if p, ok := pt.SelectPeerOf(0, src); !ok || p != 9 {
			t.Fatalf("selected (%d, %v), want the one member 9", p, ok)
		}
	}
}

// TestPeerTableConcurrentSelectAndChurn selects on one goroutine, as the
// daemon's run loop does, while another joins and removes peers, as its
// membership handling does. Two members never leave, so every selection must
// succeed and name someone who was a member at some point; under -race it is
// the check that SelectPeerOf and membership changes share no unguarded state.
func TestPeerTableConcurrentSelectAndChurn(t *testing.T) {
	pt := newPeerTable()
	pt.add(1)
	pt.add(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			for id := protocol.NodeID(100); id < 150; id++ {
				pt.add(id)
			}
			for id := protocol.NodeID(100); id < 150; id++ {
				pt.remove(id)
			}
		}
	}()
	src := rng.New(11)
	for i := 0; i < 2000; i++ {
		p, ok := pt.SelectPeerOf(0, src)
		if !ok {
			t.Fatal("SelectPeerOf failed while two members stayed")
		}
		if p != 1 && p != 2 && (p < 100 || p >= 150) {
			t.Fatalf("selected %d, which was never a member", p)
		}
	}
	wg.Wait()
	if pt.size() != 2 {
		t.Errorf("size %d after churn, want the two permanent members", pt.size())
	}
}
