package sim

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// runUntilCoordinatorDrain is ShardedEngine.RunUntil with every outbox drain
// on the coordinator, sequentially, at the top of every barrier: the
// reference order of the parallel destination-side drain. (The workers'
// fused drain then always finds the drained set empty.)
func runUntilCoordinatorDrain(se *ShardedEngine, horizon float64) {
	for {
		t := se.coord.Now()
		se.drainOutboxes()
		se.coord.RunUntil(t)
		if t >= horizon {
			break
		}
		wEnd := min(t+se.lookahead, horizon)
		if next, ok := se.coord.NextTime(); ok && next < wEnd {
			wEnd = next
		}
		se.runWindow(wEnd)
		se.coord.RunBefore(wEnd)
	}
	for _, e := range se.engines {
		e.RunUntil(horizon)
	}
	se.drainOutboxes()
}

// drainWorld is a sharded run built to stress the barrier drain. Every node
// ticks from a hook lane each period on a quarter-second grid and sends one
// message: cross-shard at exactly the lookahead or a little more, so many
// deposits land exactly on a window end, or intra-shard with ties. The
// coordinator runs closures at some barriers and not others — on and off the
// window grid — which log what every shard engine holds (so they must run
// after the deposits), send cross- and intra-shard themselves and schedule a
// shard closure. Each log has one writer: a shard's worker, or the
// coordinator.
type drainWorld struct {
	se     *ShardedEngine
	n      int
	rngs   []*rng.Source // per node, owned by its shard
	coordR *rng.Source
	logs   [][]string // per shard, then the coordinator's
	sent   []uint64   // per node: messages sent, for unique words
	tick   drainTick
	funcs  []*shardFuncs
}

type drainTick struct{ w *drainWorld }

func (k drainTick) Deliver(d Delivery) {
	w, se := k.w, k.w.se
	node := int(d.To)
	s := int(se.shardOf(d.To))
	now := se.ShardNow(s)
	w.logs[s] = append(w.logs[s], fmt.Sprintf("tick %d @%v", node, now))
	w.send(node, w.rngs[node], now)
	se.ShardScheduleHookAt(s, now+1, d.To, 0, k)
}

func (k drainTick) RunHook(to int32, word uint64) { k.Deliver(Delivery{To: to, Word: word}) }

// send makes node from send one message with a delay the conservative
// contract allows.
func (w *drainWorld) send(from int, r *rng.Source, now float64) {
	to := r.Intn(w.n)
	delay := q(r.Float64() * 2)
	if w.se.shardOf(int32(from)) != w.se.shardOf(int32(to)) {
		delay = 1 + q(r.Float64()) // the lookahead exactly, a quarter of the time
	}
	w.sent[from]++
	w.se.Send(delay, Delivery{From: int32(from), To: int32(to), Word: uint64(from)<<32 | w.sent[from]})
}

func (w *drainWorld) Deliver(d Delivery) {
	s := int(w.se.shardOf(d.To))
	w.logs[s] = append(w.logs[s], fmt.Sprintf("deliver %d→%d #%x @%v", d.From, d.To, d.Word, w.se.ShardNow(s)))
}

// coordinator is one run-global event: it logs each shard engine's pending
// count, sends from two random nodes, puts a closure on a random shard, and
// re-arms itself a random number of quarter seconds on.
func (w *drainWorld) coordinator() {
	se, r := w.se, w.coordR
	now := se.Now()
	entry := fmt.Sprintf("coord @%v", now)
	for _, e := range se.engines {
		entry += fmt.Sprintf(" %d", e.Pending())
	}
	w.logs[len(w.logs)-1] = append(w.logs[len(w.logs)-1], entry)
	for k := 0; k < 2; k++ {
		w.send(r.Intn(w.n), r, now)
	}
	s := r.Intn(len(se.engines))
	at := q(r.Float64() * 2)
	w.funcs[s].at(at, func() {
		w.logs[s] = append(w.logs[s], fmt.Sprintf("closure @%v", se.ShardNow(s)))
	})
	if now < 30 {
		se.At(now+q(0.25+r.Float64()*4), w.coordinator)
	}
}

// runDrainWorld runs the world to a series of horizons — window ends, and
// points between them — with the given RunUntil, and returns the logs and
// the accounting probes taken between calls.
func runDrainWorld(t *testing.T, shards int, seed uint64, runUntil func(se *ShardedEngine, h float64)) ([][]string, []string) {
	t.Helper()
	const n = 32
	shardOf := make([]int32, n)
	for i := range shardOf {
		shardOf[i] = int32(i % shards)
	}
	se, err := NewShardedEngine(byTable(shards, shardOf, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	w := &drainWorld{se: se, n: n, coordR: rng.New(rng.Derive(seed, 1000)), logs: make([][]string, shards+1), sent: make([]uint64, n)}
	w.tick = drainTick{w: w}
	w.funcs = newShardFuncs(se)
	se.SetSink(w)
	setup := rng.New(seed)
	w.rngs = make([]*rng.Source, n)
	for i := 0; i < n; i++ {
		w.rngs[i] = rng.New(rng.Derive(seed, uint64(i)))
		se.ShardScheduleHookAt(int(shardOf[i]), q(setup.Float64()), int32(i), 0, w.tick)
	}
	for k := 0; k < 3; k++ {
		se.At(q(setup.Float64()*5), w.coordinator)
	}
	var probes []string
	for _, h := range []float64{3, 7.5, 11, 11, 16.25, 24, 40} {
		runUntil(se, h)
		probes = append(probes, fmt.Sprintf("@%v processed %d pending %d", se.Now(), se.Processed(), se.pending()))
	}
	return w.logs, probes
}

// TestShardParallelDrainMatchesCoordinatorDrain is the differential test of
// the parallel destination-side drain: per-shard and coordinator logs and
// the Processed/Pending probes must equal those of the same run with every
// drain sequential on the coordinator. The run has sources appending to the
// outboxes while destinations drain (fused drains), coordinator events at
// some barriers and not others (drain-only phases), cross-shard deliveries
// at exactly the lookahead, and horizons — repeated, too — landing on window
// ends, where the final sweep needs the deposits. Named …Shard… so CI's
// sharded race soak runs it.
func TestShardParallelDrainMatchesCoordinatorDrain(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				got, gotProbes := runDrainWorld(t, shards, seed, (*ShardedEngine).RunUntil)
				want, wantProbes := runDrainWorld(t, shards, seed, runUntilCoordinatorDrain)
				if !reflect.DeepEqual(gotProbes, wantProbes) {
					t.Fatalf("shards=%d seed %d: probes differ:\nparallel    %q\ncoordinator %q", shards, seed, gotProbes, wantProbes)
				}
				total := 0
				for s := range want {
					total += len(want[s])
					for i := range want[s] {
						if i >= len(got[s]) || got[s][i] != want[s][i] {
							t.Fatalf("shards=%d seed %d log %d: entry %d differs: parallel %v, coordinator %q",
								shards, seed, s, i, at(got[s], i), want[s][i])
						}
					}
					if len(got[s]) != len(want[s]) {
						t.Fatalf("shards=%d seed %d log %d: parallel logged %d entries, coordinator %d", shards, seed, s, len(got[s]), len(want[s]))
					}
				}
				if coord := len(want[shards]); total < 2000 || coord < 10 {
					t.Fatalf("shards=%d seed %d: %d entries, %d coordinator events; want thousands and some", shards, seed, total, coord)
				}
			}
		})
	}
}
