package protocol

import (
	"sync"
	"testing"
	"unsafe"

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// TestNodeRowsAreOneCacheLine guards the layout the simulator's hot path is
// sized for: one event touches one 16-byte application row and one 64-byte
// state row that also holds the node's generator; the strategy is the
// slab's. A field added to either shows up here, not as a slow regression —
// or 500 000 nodes' worth of bytes — at scale.
func TestNodeRowsAreOneCacheLine(t *testing.T) {
	var s Slab
	if size := unsafe.Sizeof(s.apps[0]); size != 16 {
		t.Errorf("a node row is %d bytes, want exactly 16", size)
	}
	if size := unsafe.Sizeof(NodeState{}); size != 64 {
		t.Errorf("NodeState is %d bytes, want exactly 64", size)
	}
	// The generator and the folded runtime words share the line with the
	// account and the 32-bit counters; none of them may be pushed past it.
	var st NodeState
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"Account", unsafe.Offsetof(st.Account), unsafe.Sizeof(st.Account)},
		{"counts", unsafe.Offsetof(st.counts), unsafe.Sizeof(st.counts)},
		{"Egress", unsafe.Offsetof(st.Egress), unsafe.Sizeof(st.Egress)},
		{"PeerOff", unsafe.Offsetof(st.PeerOff), unsafe.Sizeof(st.PeerOff)},
		{"PeerDeg", unsafe.Offsetof(st.PeerDeg), unsafe.Sizeof(st.PeerDeg)},
		{"rng", unsafe.Offsetof(st.rng), unsafe.Sizeof(st.rng)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("NodeState.%s spans bytes [%d, %d), past the 64-byte line", f.name, f.off, f.off+f.size)
		}
	}
	if size := unsafe.Sizeof(st.counts); size != 24 {
		t.Errorf("the counters take %d bytes, want six 32-bit counts", size)
	}
	if size := unsafe.Sizeof(st.rng); size != 8 {
		t.Errorf("the generator takes %d bytes, want one SplitMix64 word", size)
	}
}

// TestCounterSaturationIsReported trips the guard on the 32-bit counters: a
// count may end exactly at MaxCount and is read back in full by Stats; a
// node whose count stands at MaxCount keeps it there on the next event it
// would count — a round from Tick, a receive from Receive, a batch of
// refunded tokens — instead of wrapping to zero, and the slab reports it.
func TestCounterSaturationIsReported(t *testing.T) {
	newNode := func(t *testing.T) *Slab {
		t.Helper()
		s, err := NewSlab(1, core.PurelyProactive{}, &collectingSender{}, indexPeers{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.InitSeeded(0, Config{Application: &countingApp{}}, 1); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := newNode(t)
	s.State(0).counts.rounds = MaxCount - 1
	s.Tick(0)
	if got := s.State(0).Stats().Rounds; got != MaxCount || s.Saturated() {
		t.Fatalf("Rounds = %d, saturated %v; want MaxCount = %d, not saturated", got, s.Saturated(), uint64(MaxCount))
	}
	s.Tick(0)
	if got := s.State(0).Stats().Rounds; got != MaxCount || !s.Saturated() {
		t.Fatalf("Tick past MaxCount: Rounds = %d, saturated %v; want MaxCount, saturated", got, s.Saturated())
	}

	s = newNode(t)
	s.State(0).counts.received = MaxCount
	s.Receive(0, 0, Payload{})
	if got := s.State(0).Stats().Received; got != MaxCount || !s.Saturated() {
		t.Fatalf("Receive past MaxCount: Received = %d, saturated %v; want MaxCount, saturated", got, s.Saturated())
	}

	s = newNode(t)
	c := uint32(MaxCount - 2)
	if s.count(&c, 2); c != MaxCount || s.Saturated() {
		t.Fatalf("count reached %d, saturated %v; want MaxCount, not saturated", c, s.Saturated())
	}
	c = MaxCount - 2
	if s.count(&c, 3); c != MaxCount || !s.Saturated() {
		t.Fatalf("a batch of 3 past MaxCount − 2 left %d, saturated %v; want MaxCount, saturated", c, s.Saturated())
	}
}

// indexPeers is a selector pointing node i at i+offset.
type indexPeers struct{ offset int }

func (p indexPeers) SelectPeerOf(i int, _ Rand) (NodeID, bool) { return NodeID(i + p.offset), true }

// TestSharedSlabCollaborators checks that every node runs on the slab's one
// Sender and one selector, and that both see the node's own index — the
// selector as the node to sample for, the Sender as the source — through
// both entry points — by index and through the facade.
func TestSharedSlabCollaborators(t *testing.T) {
	sender := &collectingSender{}
	s, err := NewSlab(3, core.PurelyProactive{}, sender, indexPeers{offset: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cfg := Config{Application: &countingApp{}}
		if err := s.InitSeeded(i, cfg, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Tick(0)
	s.Node(1).Tick()
	s.Tick(2)
	s.Node(2).Tick()
	s.Receive(2, 1, Payload{})
	want := []sentMsg{{from: 0, to: 100}, {from: 1, to: 101}, {from: 2, to: 102}, {from: 2, to: 102}}
	if len(sender.msgs) != len(want) {
		t.Fatalf("sender saw %+v, want %+v", sender.msgs, want)
	}
	for i, m := range sender.msgs {
		if m.from != want[i].from || m.to != want[i].to {
			t.Errorf("message %d went %d→%d, want %d→%d", i, m.from, m.to, want[i].from, want[i].to)
		}
	}
	if got := s.State(2).Stats(); got.Rounds != 2 || got.Received != 1 {
		t.Errorf("node 2 stats = %+v, want two rounds and one receive", got)
	}
}

// drawingPeers points every node at node 0 and records, per selection, one
// Intn draw from the generator it is handed.
type drawingPeers struct{ draws []int }

func (d *drawingPeers) SelectPeerOf(_ int, r Rand) (NodeID, bool) {
	d.draws = append(d.draws, r.Intn(1<<30))
	return 0, true
}

// TestInitSeededMatchesExternalGenerator checks that the generator InitSeeded
// embeds in a node's row is rng.New(seed): the row starts in that state, and
// the draws its selector makes are that generator's stream, with two rows
// interleaved and receives (which draw nothing under a proactive strategy)
// in between.
func TestInitSeededMatchesExternalGenerator(t *testing.T) {
	const seed = 77
	peers := &drawingPeers{}
	s, err := NewSlab(2, core.PurelyProactive{}, &collectingSender{}, peers)
	if err != nil {
		t.Fatal(err)
	}
	external := [2]*rng.Source{rng.New(seed), rng.New(seed + 1)}
	for i := range external {
		cfg := Config{Application: &countingApp{}}
		if err := s.InitSeeded(i, cfg, seed+uint64(i)); err != nil {
			t.Fatal(err)
		}
		if s.State(i).rng != *external[i] {
			t.Fatalf("row %d starts at %+v, want rng.New(%d) = %+v", i, s.State(i).rng, seed+i, *external[i])
		}
	}
	for step := 0; step < 300; step++ {
		i := step % 2
		if step%3 == 0 {
			s.Receive(i, 5, Payload{})
			continue
		}
		peers.draws = peers.draws[:0]
		s.Tick(i)
		if want := external[i].Intn(1 << 30); len(peers.draws) != 1 || peers.draws[0] != want {
			t.Fatalf("step %d: row %d drew %v, want [%d]", step, i, peers.draws, want)
		}
	}
	for i := range external {
		if s.State(i).rng != *external[i] {
			t.Errorf("row %d ends at %+v, external generator at %+v", i, s.State(i).rng, *external[i])
		}
	}
}

// wordApp sends one fixed word payload and finds every message useful.
type wordApp struct{}

func (wordApp) CreateMessage() Payload           { return WordPayload(KindBoxed+1, 1<<40) }
func (wordApp) UpdateState(NodeID, Payload) bool { return true }

// countingSender counts messages and keeps nothing.
type countingSender struct{ n int }

func (c *countingSender) Send(NodeID, NodeID, Payload) { c.n++ }

// TestSlabMessagePathAllocs guards the node's own share of the simulator's
// hot path: with a word payload and a sender that keeps nothing, a round and
// a delivery — by index and through the facade — allocate nothing.
func TestSlabMessagePathAllocs(t *testing.T) {
	sender := &countingSender{}
	s, err := NewSlab(2, core.MustRandomized(5, 10), sender, indexPeers{offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cfg := Config{Application: wordApp{}}
		if err := s.InitSeeded(i, cfg, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := WordPayload(KindBoxed+1, 1<<40)
	allocs := testing.AllocsPerRun(1000, func() {
		s.Tick(0)
		s.Receive(0, 1, p)
		s.Node(1).Tick()
		s.Node(1).Receive(0, p)
	})
	if allocs != 0 {
		t.Errorf("tick and receive allocate %.2f per call, want 0", allocs)
	}
	if sender.n == 0 {
		t.Fatal("no message was sent: the path under test never ran")
	}
}

// TestSlabValidation pins what a slab and its nodes must be given: NewSlab
// needs a strategy, a Sender and a peer selector, and a node needs an
// application and a non-negative starting balance.
func TestSlabValidation(t *testing.T) {
	sender, peers := &collectingSender{}, indexPeers{}
	if _, err := NewSlab(1, nil, sender, peers); err == nil {
		t.Error("NewSlab accepted a nil strategy")
	}
	if _, err := NewSlab(1, core.PurelyProactive{}, nil, peers); err == nil {
		t.Error("NewSlab accepted a nil Sender")
	}
	if _, err := NewSlab(1, core.PurelyProactive{}, sender, nil); err == nil {
		t.Error("NewSlab accepted a nil peer selector")
	}
	if _, err := NewSlab(-1, core.PurelyProactive{}, sender, peers); err == nil {
		t.Error("NewSlab accepted a negative size")
	}
	s, err := NewSlab(1, core.PurelyProactive{}, sender, peers)
	if err != nil {
		t.Fatal(err)
	}
	valid := Config{Application: &countingApp{}, InitialTokens: 3}
	if err := s.InitSeeded(0, valid, 1); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	broken := map[string]func(c *Config){
		"no application":  func(c *Config) { c.Application = nil },
		"negative tokens": func(c *Config) { c.InitialTokens = -1 },
	}
	for name, mutate := range broken {
		cfg := valid
		mutate(&cfg)
		if err := s.InitSeeded(0, cfg, 1); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestSlabConcurrentInit builds a slab from several goroutines, each
// initializing its own indices — the runtime's BuildWorkers path — and
// checks every node landed on the slab's Sender and selector. Under -race it
// is the check that InitSeeded on distinct indices shares no write.
func TestSlabConcurrentInit(t *testing.T) {
	const n = 256
	sender := &collectingSender{}
	s, err := NewSlab(n, core.PurelyProactive{}, sender, indexPeers{offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				cfg := Config{Application: &countingApp{}}
				if err := s.InitSeeded(i, cfg, uint64(i)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		s.Tick(i)
		if got := sender.msgs[i]; got.from != NodeID(i) || got.to != NodeID(i+1) {
			t.Fatalf("node %d sent %d→%d, want %d→%d", i, got.from, got.to, i, i+1)
		}
	}
}

// TestPreloadsOnlyRead checks that the two preloads read what they name and
// change nothing: PreloadApp returns the first byte of the value behind the
// application interface — a pointer's pointee, or the boxed copy of a value —
// and reads nothing for a zero-size value, and neither preload alters the
// node's rows.
func TestPreloadsOnlyRead(t *testing.T) {
	apps := []struct {
		app  Application
		want uint64
	}{
		{&countingApp{useful: true}, 1},
		{&countingApp{}, 0},
		{wordApp{}, 0},
	}
	s, err := NewSlab(len(apps), core.PurelyProactive{}, &collectingSender{}, indexPeers{})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range apps {
		if err := s.InitSeeded(i, Config{Application: a.app, InitialTokens: 3}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range apps {
		app, state := s.apps[i], *s.State(i)
		if got := s.PreloadApp(i); got != a.want {
			t.Errorf("node %d: PreloadApp = %d, want %d", i, got, a.want)
		}
		if got := s.Preload(i); got != 3+1 {
			t.Errorf("node %d: Preload = %d, want balance + 1 for the application = 4", i, got)
		}
		if s.apps[i] != app || *s.State(i) != state {
			t.Errorf("node %d: a preload changed its rows", i)
		}
	}
}
