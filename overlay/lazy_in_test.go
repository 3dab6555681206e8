package overlay_test

import (
	stdruntime "runtime"
	"slices"
	"testing"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/runtime"
)

// graphCapture is an application driver that records the overlays the
// wrapped driver builds.
type graphCapture struct {
	experiment.AppDriver
	graphs *[]*overlay.Graph
}

func (c graphCapture) BuildOverlay(cfg experiment.Config, seed uint64) (*overlay.Graph, error) {
	g, err := c.AppDriver.BuildOverlay(cfg, seed)
	*c.graphs = append(*c.graphs, g)
	return g, err
}

// TestRunsLeaveUnreadInAdjacencyUnbuilt runs each application end to end and
// checks that only chaotic iteration, the one reader, ends up with the
// overlay's in-adjacency: push gossip, gossip learning and blockcast never
// pay for it. It fails if a constructor builds it eagerly again.
func TestRunsLeaveUnreadInAdjacencyUnbuilt(t *testing.T) {
	for _, c := range []struct {
		app   experiment.AppDriver
		reads bool
	}{
		{experiment.PushGossip, false},
		{experiment.GossipLearning, false},
		{experiment.Blockcast, false},
		{experiment.ChaoticIteration, true},
	} {
		t.Run(c.app.Name(), func(t *testing.T) {
			var graphs []*overlay.Graph
			_, err := experiment.Run(experiment.Config{
				App:      graphCapture{c.app, &graphs},
				Strategy: experiment.Randomized(5, 10),
				N:        200,
				Rounds:   20,
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(graphs) != 1 {
				t.Fatalf("run built %d overlays, want 1", len(graphs))
			}
			if got := overlay.InAdjacencyBuilt(graphs[0]); got != c.reads {
				t.Errorf("in-adjacency built = %v, want %v", got, c.reads)
			}
		})
	}
}

// TestChaoticIterationParallelBuildFirstUse assembles the chaotic-iteration
// application at GOMAXPROCS 8, so NewHost builds over 8 ranges and the first
// reads of a fresh overlay's in-adjacency come from poweriter.New on 8
// goroutines at once (run it under -race). The assembled states must equal
// those of a build at GOMAXPROCS 1.
func TestChaoticIterationParallelBuildFirstUse(t *testing.T) {
	cfg := experiment.Config{
		App:      experiment.ChaoticIteration,
		Strategy: experiment.Randomized(5, 10),
		N:        2000,
		Seed:     3,
	}.WithDefaults()
	angle := func(procs int) float64 {
		defer stdruntime.GOMAXPROCS(stdruntime.GOMAXPROCS(procs))
		g, err := cfg.App.BuildOverlay(cfg, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if overlay.InAdjacencyBuilt(g) {
			t.Fatal("BuildOverlay built the in-adjacency")
		}
		run, err := cfg.App.NewRun(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		env, err := cfg.Runtime.NewEnv(cfg, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		strategy, err := cfg.Strategy.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runtime.NewHost(env, runtime.Config{
			Graph:    g,
			Strategy: strategy,
			NewApp:   run.NewApp,
			Delta:    cfg.Delta,
			Network:  netmodel.Constant{D: cfg.TransferDelay},
		}); err != nil {
			t.Fatal(err)
		}
		twin, err := cfg.App.BuildOverlay(cfg, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.N(); i++ {
			if !slices.Equal(g.InNeighbors(i), twin.InNeighbors(i)) {
				t.Fatalf("GOMAXPROCS=%d: node %d in-neighbours differ from a fresh build's", procs, i)
			}
		}
		return run.Sample(0, &experiment.RunContext{})
	}
	if par, seq := angle(8), angle(1); par != seq {
		t.Errorf("build at GOMAXPROCS 8: angle %v, at GOMAXPROCS 1: %v", par, seq)
	}
}
