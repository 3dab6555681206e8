package runtime_test

import (
	"fmt"
	stdruntime "runtime"
	"testing"

	"github.com/szte-dcs/tokenaccount/apps/pushgossip"
	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/internal/rng"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/trace"
)

// The slab's contract is behavioural transparency: a node whose row shares a
// struct-of-arrays slab with busy neighbours must be indistinguishable from
// one that has a slab to itself, and a host built by parallel workers must be
// indistinguishable from one built sequentially. The tests below check both
// on randomized schedules; the CI soak reruns them under -race, which
// additionally validates the concurrent slab initialization.

// sentMsg is one recorded outgoing message.
type sentMsg struct {
	from, to protocol.NodeID
	kind     protocol.PayloadKind
	word     uint64
}

// recordingSender logs every outgoing message.
type recordingSender struct{ log []sentMsg }

func (s *recordingSender) Send(from, to protocol.NodeID, p protocol.Payload) {
	s.log = append(s.log, sentMsg{from, to, p.Kind, p.Word})
}

// from returns the messages node id sent, in order.
func (s *recordingSender) from(id protocol.NodeID) []sentMsg {
	var out []sentMsg
	for _, m := range s.log {
		if m.from == id {
			out = append(out, m)
		}
	}
	return out
}

// flakySelector samples peers from the node's own generator and fails one
// draw in four, modelling the all-neighbours-offline outcome of churn. Both
// node variants carry identical generators, so the selector makes identical
// draws for them.
type flakySelector struct{ n int }

func (f flakySelector) SelectPeerOf(_ int, r protocol.Rand) (protocol.NodeID, bool) {
	if r.Intn(4) == 0 {
		return protocol.NoNode, false
	}
	return protocol.NodeID(r.Intn(f.n)), true
}

// TestSlabNodeMatchesPerObjectNode drives a node that has a slab to itself
// (row 3 of a slab whose other rows are never initialized, the per-object
// build the protocol unit tests use) and the same node as row 3 of a six-row
// slab, whose other rows tick and receive between its steps, through
// identical randomized schedules of ticks, receives and direct responses,
// for every strategy family of the golden configurations, and requires
// identical balances, stats and outgoing traffic at every step: a row's
// generator, account and application are its own.
func TestSlabNodeMatchesPerObjectNode(t *testing.T) {
	const rows, row, id = 6, 3, protocol.NodeID(3)
	strategies := map[string]core.Strategy{
		"simple":      core.MustSimple(10),
		"generalized": core.MustGeneralized(5, 10),
		"randomized":  core.MustRandomized(5, 10),
		"reactive":    core.MustPureReactive(1, true),
	}
	for name, strat := range strategies {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				peers := flakySelector{n: 50}
				objSender, slabSender := &recordingSender{}, &recordingSender{}
				objSlab, err := protocol.NewSlab(row+1, strat, objSender, peers)
				if err != nil {
					t.Fatal(err)
				}
				cfg := protocol.Config{Application: pushgossip.New()}
				if err := objSlab.InitSeeded(row, cfg, seed); err != nil {
					t.Fatal(err)
				}
				obj := objSlab.Node(row)
				slab, err := protocol.NewSlab(rows, strat, slabSender, peers)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < rows; i++ {
					cfg := protocol.Config{Application: pushgossip.New()}
					// The neighbours get the same seed, so a shared
					// generator would show up as a shifted stream.
					if err := slab.InitSeeded(i, cfg, seed); err != nil {
						t.Fatal(err)
					}
				}
				sn := slab.Node(row)

				sched := rng.New(seed + 1000)
				for step := 0; step < 400; step++ {
					p := pushgossip.Update{Seq: int64(sched.Intn(40))}.Payload()
					if other := sched.Intn(rows); other != row {
						if sched.Intn(2) == 0 {
							slab.Tick(other)
						} else {
							slab.Receive(other, id, p)
						}
					}
					switch sched.Intn(3) {
					case 0:
						obj.Tick()
						sn.Tick()
					case 1:
						from := protocol.NodeID(sched.Intn(50))
						obj.Receive(from, p)
						sn.Receive(from, p)
					case 2:
						to := protocol.NodeID(sched.Intn(50))
						if o, s := obj.RespondDirect(to), sn.RespondDirect(to); o != s {
							t.Fatalf("step %d: RespondDirect = %v (per-object) vs %v (slab)", step, o, s)
						}
					}
					if obj.Tokens() != sn.Tokens() {
						t.Fatalf("step %d: tokens %d (per-object) vs %d (slab)", step, obj.Tokens(), sn.Tokens())
					}
					if obj.Stats() != sn.Stats() {
						t.Fatalf("step %d: stats %+v (per-object) vs %+v (slab)", step, obj.Stats(), sn.Stats())
					}
				}
				objLog, slabLog := objSender.log, slabSender.from(id)
				if len(objLog) != len(slabLog) {
					t.Fatalf("sent %d messages (per-object) vs %d (slab)", len(objLog), len(slabLog))
				}
				for i := range objLog {
					if objLog[i] != slabLog[i] {
						t.Fatalf("message %d differs: %+v (per-object) vs %+v (slab)", i, objLog[i], slabLog[i])
					}
				}
			})
		}
	}
}

// TestParallelBuildMatchesSequentialUnderChurn builds the same churny,
// audited configuration at GOMAXPROCS 1 (one build range, run inline) and at
// GOMAXPROCS 8 (eight ranges on their own goroutines), runs both to the same horizon, and requires every observable —
// per-node balances and stats, message counters, online flags, rejoin
// sequence and audit envelopes — to agree. Under -race (the CI soak) this
// doubles as the data-race check on concurrent slab initialization.
func TestParallelBuildMatchesSequentialUnderChurn(t *testing.T) {
	const n, seed = 120, 17
	duration := 30 * delta
	tr := trace.AlwaysOnline(n, duration)
	// A third of the nodes take a mid-run outage, staggered so rejoins
	// interleave with ticks.
	for i := 0; i < n; i += 3 {
		start := (3 + float64(i%9)) * delta
		tr.Segments[i] = trace.Segment{Intervals: []trace.Interval{
			{Start: 0, End: start},
			{Start: start + 4*delta, End: duration},
		}}
	}

	type result struct {
		tokens    []int
		stats     []protocol.Stats
		online    []bool
		rejoined  []int
		sent      int64
		delivered int64
		audits    int
	}
	build := func(procs int) result {
		defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
		cfg := hostConfig(t, n)
		cfg.Trace = tr
		cfg.Audit = true
		var rejoined []int
		cfg.OnRejoin = func(_ *runtime.Host, node int) { rejoined = append(rejoined, node) }
		host, err := runtime.NewHost(newSimEnv(t, n, seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := host.Run(duration); err != nil {
			t.Fatal(err)
		}
		res := result{
			rejoined:  rejoined,
			sent:      host.MessagesSent(),
			delivered: host.MessagesDelivered(),
			audits:    len(host.AuditViolations()),
		}
		for i := 0; i < n; i++ {
			res.tokens = append(res.tokens, host.Node(i).Tokens())
			res.stats = append(res.stats, host.Node(i).Stats())
			res.online = append(res.online, host.Online(i))
		}
		return res
	}

	seq, par := build(1), build(8)
	if seq.sent != par.sent || seq.delivered != par.delivered {
		t.Errorf("message counters differ: sequential (%d,%d) vs parallel (%d,%d)",
			seq.sent, seq.delivered, par.sent, par.delivered)
	}
	if seq.audits != par.audits {
		t.Errorf("audit violations differ: %d vs %d", seq.audits, par.audits)
	}
	if len(seq.rejoined) != len(par.rejoined) {
		t.Errorf("rejoin counts differ: %v vs %v", seq.rejoined, par.rejoined)
	} else {
		for i := range seq.rejoined {
			if seq.rejoined[i] != par.rejoined[i] {
				t.Errorf("rejoin %d differs: node %d vs %d", i, seq.rejoined[i], par.rejoined[i])
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		if seq.tokens[i] != par.tokens[i] || seq.stats[i] != par.stats[i] || seq.online[i] != par.online[i] {
			t.Errorf("node %d diverged: tokens %d/%d, online %v/%v, stats %+v vs %+v",
				i, seq.tokens[i], par.tokens[i], seq.online[i], par.online[i], seq.stats[i], par.stats[i])
			break
		}
	}
}
