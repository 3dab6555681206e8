package protocol

import (
	"sync"
	"testing"
	"unsafe"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// TestNodeRowsAreOneCacheLine guards the layout the simulator's hot path is
// sized for: one event touches one 64-byte facade row and one 64-byte state
// row. A field added to either shows up here, not as a slow regression at
// 500 000 nodes.
func TestNodeRowsAreOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 64 {
		t.Errorf("Node is %d bytes, want ≤ 64", size)
	}
	if size := unsafe.Sizeof(NodeState{}); size != 64 {
		t.Errorf("NodeState is %d bytes, want exactly 64", size)
	}
}

// indexPeers is a shared selector pointing node i at i+offset.
type indexPeers struct{ offset int }

func (p indexPeers) SelectPeerOf(i int, _ Rand) (NodeID, bool) { return NodeID(i + p.offset), true }

// TestSharedSlabCollaborators checks the resolution order of a slab's
// collaborators: nodes run on the slab-wide Sender and selector and on their
// embedded generator unless their Config brings its own, and the two entry
// points — by index and through the facade — are the same code.
func TestSharedSlabCollaborators(t *testing.T) {
	shared, private := &collectingSender{}, &collectingSender{}
	s := NewSharedSlab(3, shared, indexPeers{offset: 100})
	base := Config{Strategy: core.PurelyProactive{}, Application: &countingApp{}}
	for i := 0; i < 2; i++ {
		cfg := base
		cfg.ID = NodeID(10 + i)
		if err := s.InitSeeded(i, cfg, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	override := base
	override.ID, override.Sender, override.Peers, override.RNG = 12, private, staticPeers{peer: 7, ok: true}, rng.New(5)
	if err := s.Init(2, override); err != nil {
		t.Fatal(err)
	}
	s.Tick(0)
	s.Node(1).Tick()
	s.Tick(2)
	s.Receive(2, 1, Payload{})
	want := []sentMsg{{from: 10, to: 100}, {from: 11, to: 101}}
	if len(shared.msgs) != 2 || shared.msgs[0].from != want[0].from || shared.msgs[0].to != want[0].to ||
		shared.msgs[1].from != want[1].from || shared.msgs[1].to != want[1].to {
		t.Errorf("shared sender saw %+v, want %+v", shared.msgs, want)
	}
	if len(private.msgs) != 1 || private.msgs[0].from != 12 || private.msgs[0].to != 7 {
		t.Errorf("overriding sender saw %+v, want one message 12→7", private.msgs)
	}
	if got := s.State(2).Stats; got.Rounds != 1 || got.Received != 1 {
		t.Errorf("node 2 stats = %+v, want one round and one receive", got)
	}
}

// TestInitSeededMatchesExternalGenerator drives a node on an embedded
// generator and one on rng.New of the same seed through one schedule under a
// randomized strategy: the embedded stream is the external one, draw for
// draw.
func TestInitSeededMatchesExternalGenerator(t *testing.T) {
	const seed = 77
	senders := [2]*collectingSender{{}, {}}
	s := NewSlab(2)
	cfg := Config{Strategy: core.MustRandomized(3, 8), Peers: flakyPeers{}}
	cfg.Application, cfg.Sender = &countingApp{useful: true}, senders[0]
	if err := s.InitSeeded(0, cfg, seed); err != nil {
		t.Fatal(err)
	}
	cfg.Application, cfg.Sender, cfg.RNG = &countingApp{useful: true}, senders[1], rng.New(seed)
	if err := s.Init(1, cfg); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 300; step++ {
		for i := 0; i < 2; i++ {
			if step%3 == 0 {
				s.Tick(i)
			} else {
				s.Receive(i, 5, Payload{})
			}
		}
		if *s.State(0) != *s.State(1) {
			t.Fatalf("step %d: embedded %+v, external %+v", step, *s.State(0), *s.State(1))
		}
	}
	if len(senders[0].msgs) == 0 || len(senders[0].msgs) != len(senders[1].msgs) {
		t.Fatalf("sent %d (embedded) vs %d (external) messages", len(senders[0].msgs), len(senders[1].msgs))
	}
	for i := range senders[0].msgs {
		if senders[0].msgs[i].to != senders[1].msgs[i].to {
			t.Fatalf("message %d went to %d (embedded) vs %d (external)", i, senders[0].msgs[i].to, senders[1].msgs[i].to)
		}
	}
}

// flakyPeers draws its peer — and, one time in four, its failure — from the
// node's generator.
type flakyPeers struct{}

func (flakyPeers) SelectPeer(r Rand) (NodeID, bool) {
	if r.Intn(4) == 0 {
		return NoNode, false
	}
	return NodeID(r.Intn(50)), true
}

// TestSlabValidation pins which collaborators a slab may stand in for: a
// node still needs a Sender, a peer selector and a randomness source from
// somewhere, and cannot have two generators.
func TestSlabValidation(t *testing.T) {
	full := Config{
		Strategy:    core.PurelyProactive{},
		Application: &countingApp{},
		Peers:       staticPeers{peer: 2, ok: true},
		Sender:      &collectingSender{},
	}
	bare := Config{Strategy: full.Strategy, Application: full.Application}
	cases := []struct {
		name   string
		slab   *Slab
		cfg    Config
		seeded bool
		ok     bool
	}{
		{"own collaborators, embedded generator", NewSlab(1), full, true, true},
		{"shared collaborators, embedded generator", NewSharedSlab(1, full.Sender, indexPeers{}), bare, true, true},
		{"no generator", NewSharedSlab(1, full.Sender, indexPeers{}), bare, false, false},
		{"no sender anywhere", NewSharedSlab(1, nil, indexPeers{}), bare, true, false},
		{"no selector anywhere", NewSharedSlab(1, full.Sender, nil), bare, true, false},
		{"two generators", NewSlab(1), func() Config { c := full; c.RNG = rng.New(1); return c }(), true, false},
	}
	for _, c := range cases {
		var err error
		if c.seeded {
			err = c.slab.InitSeeded(0, c.cfg, 1)
		} else {
			err = c.slab.Init(0, c.cfg)
		}
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}

// TestSlabConcurrentInit builds a slab from several goroutines with a mix of
// shared and per-node collaborators — the side tables are allocated by
// whichever Init gets there first — and checks every node landed. Under
// -race it is the data-race check on that allocation.
func TestSlabConcurrentInit(t *testing.T) {
	const n = 256
	sender := &collectingSender{}
	s := NewSharedSlab(n, sender, indexPeers{offset: 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				cfg := Config{ID: NodeID(i), Strategy: core.PurelyProactive{}, Application: &countingApp{}}
				var err error
				if i%2 == 0 {
					cfg.Peers, cfg.RNG = staticPeers{peer: NodeID(-i), ok: true}, rng.New(uint64(i))
					err = s.Init(i, cfg)
				} else {
					err = s.InitSeeded(i, cfg, uint64(i))
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		s.Tick(i)
		want := NodeID(i + 1)
		if i%2 == 0 {
			want = NodeID(-i)
		}
		if got := sender.msgs[i]; got.from != NodeID(i) || got.to != want {
			t.Fatalf("node %d sent %d→%d, want %d→%d", i, got.from, got.to, i, want)
		}
	}
}
