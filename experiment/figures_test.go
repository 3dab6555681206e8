package experiment

import (
	"math"
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/metrics"
)

// tinyOptions keeps figure reproductions fast enough for unit tests.
func tinyOptions() Options { return Options{N: 80, Rounds: 30, Repetitions: 1, Seed: 5} }

func TestFigure1Statistics(t *testing.T) {
	bins, err := Figure1(500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 48 {
		t.Fatalf("got %d hourly bins, want 48", len(bins))
	}
	for _, b := range bins {
		if b.OnlineFrac < 0 || b.OnlineFrac > 1 || b.EverOnlineFrac < b.OnlineFrac-1e-9 {
			t.Fatalf("implausible bin %+v", b)
		}
	}
	if bins[len(bins)-1].EverOnlineFrac < 0.5 {
		t.Errorf("final ever-online fraction %v too low", bins[len(bins)-1].EverOnlineFrac)
	}
	// Default user count kicks in for non-positive input.
	if _, err := Figure1(0, 3); err != nil {
		t.Errorf("Figure1 with default users failed: %v", err)
	}
}

func TestFigure2GossipLearningShape(t *testing.T) {
	res, err := Figure2(GossipLearning, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(representativeStrategies()) {
		t.Fatalf("got %d curves, want %d", len(res.Results), len(representativeStrategies()))
	}
	if got := len(tableColumns(t, res.Table)); got != len(res.Results) {
		t.Fatalf("table has %d columns", got)
	}
	// The proactive baseline (first column) must be the slowest or close to
	// it: most token-account strategies should beat it clearly by the end.
	// (Large-C settings are handicapped in such a short run because accounts
	// start empty, mirroring the paper's remark in §4.2.)
	baseline := res.Results[0]
	beat, best := 0, 0.0
	for _, r := range res.Results[1:] {
		if r.SteadyStateMetric > 1.5*baseline.SteadyStateMetric {
			beat++
		}
		if r.SteadyStateMetric > best {
			best = r.SteadyStateMetric
		}
	}
	if beat < (len(res.Results)-1)/2 {
		t.Errorf("only %d of %d strategies clearly beat the proactive baseline", beat, len(res.Results)-1)
	}
	if best < 3*baseline.SteadyStateMetric {
		t.Errorf("best strategy progress %v, proactive %v: expected a large speedup", best, baseline.SteadyStateMetric)
	}
	// No strategy exceeds the communication budget.
	for _, r := range res.Results {
		if r.MessagesPerNodePerRound > 1.01 {
			t.Errorf("%s exceeded budget: %v", r.Config.Strategy.Label(), r.MessagesPerNodePerRound)
		}
	}
}

func TestFigure3PushGossipShape(t *testing.T) {
	res, err := Figure3(PushGossip, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	baseline := res.Results[0]
	improved := 0
	for _, r := range res.Results[1:] {
		if r.SteadyStateMetric < baseline.SteadyStateMetric {
			improved++
		}
	}
	if improved < (len(res.Results)-1)/2 {
		t.Errorf("only %d strategies improved over the proactive baseline under churn", improved)
	}
	if _, err := Figure3(ChaoticIteration, tinyOptions()); err == nil {
		t.Error("Figure 3 with chaotic iteration should be rejected")
	}
}

func TestFigure4RunsAtScaledSize(t *testing.T) {
	opt := tinyOptions()
	res, err := Figure4(PushGossip, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("no results")
	}
	if _, err := Figure4(ChaoticIteration, opt); err == nil {
		t.Error("Figure 4 with chaotic iteration should be rejected")
	}
}

func TestFigure5PredictionMatchesMeasurement(t *testing.T) {
	opt := Options{N: 150, Rounds: 120, Repetitions: 1, Seed: 9}
	settings, table, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(settings) == 0 || len(tableColumns(t, table)) != len(settings) {
		t.Fatal("missing Figure 5 curves")
	}
	for _, s := range settings {
		if s.Measured == nil || s.Measured.Len() == 0 {
			t.Fatalf("%s: no measured balance", s.Spec.Label())
		}
		// The balance measured over the second half of the run should be in
		// the neighbourhood of the mean-field prediction A·C/(C+1).
		measured := s.Measured.MeanAfter(s.Measured.Times[s.Measured.Len()/2])
		if math.IsNaN(measured) {
			t.Fatalf("%s: NaN measurement", s.Spec.Label())
		}
		if math.Abs(measured-s.Predicted) > 0.35*s.Predicted+1.5 {
			t.Errorf("%s: measured %v, predicted %v", s.Spec.Label(), measured, s.Predicted)
		}
	}
}

func TestFigureCurvesPropagateErrors(t *testing.T) {
	if _, err := figureCurves("x", GossipLearning, FailureFree, 1, 10, 1, 0, 1); err == nil {
		t.Error("invalid network size accepted")
	}
}

func TestOptionsScaling(t *testing.T) {
	var o Options
	if o.n(500, 5000) != 500 || o.rounds(200) != 200 || o.reps(2) != 2 {
		t.Error("defaults not used")
	}
	o = Options{N: 42, Rounds: 7, Repetitions: 3}
	if o.n(500, 5000) != 42 || o.rounds(200) != 7 || o.reps(1) != 3 {
		t.Error("overrides not used")
	}
	full := Options{FullScale: true, N: 42}
	if full.n(500, 5000) != 5000 || full.rounds(200) != DefaultRounds || full.reps(1) != 10 {
		t.Error("full-scale dimensions not used")
	}
}

// tableColumns returns the curve names of table, read from its TSV header.
func tableColumns(t *testing.T, table *metrics.Table) []string {
	t.Helper()
	var buf strings.Builder
	if err := table.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(buf.String(), "\n")
	return strings.Split(header, "\t")[1:]
}
