package main

import (
	"strings"
	"testing"

	"github.com/szte-dcs/tokenaccount/internal/profiling/proftest"
)

func TestFigure1Output(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "1", "-users", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Figure 1") || !strings.Contains(got, "hour\tonline") {
		t.Errorf("Figure 1 output malformed:\n%s", got[:min(len(got), 300)])
	}
}

func TestFigure2Output(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-fig", "2", "-n", "60", "-rounds", "15", "-reps", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Figure 2 (gossip-learning", "Figure 2 (push-gossip", "Figure 2 (chaotic-iteration",
		"proactive", "randomized(A=5,C=10)", "msgs/node/round",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Figure 2 output missing %q", want)
		}
	}
}

func TestFigure5Output(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-fig", "5", "-n", "60", "-rounds", "30", "-reps", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean-field prediction") {
		t.Error("Figure 5 output missing prediction comparison")
	}
}

func TestFigure6Output(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-fig", "6", "-n", "60", "-rounds", "20", "-reps", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Figure 6", "commit_latency_p50_s", "peak_node_burst_bytes",
		"failure-free\tzones:4:0.5:3\tpoisson:0.25\tproactive",
		"smartphone-trace", "lossy:0.01:uniform:1:2", "flashcrowd:600:10:120:poisson:0.25",
		"reactive(k=1)", "simple(C=10)", "generalized(A=5,C=10)", "randomized(A=5,C=10)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Figure 6 output missing %q", want)
		}
	}
	// Title, column header and a trailing blank line frame the
	// 2 scenarios × 2 networks × 2 workloads × 5 strategies data rows.
	if rows := strings.Count(got, "\n") - 3; rows != 40 {
		t.Errorf("Figure 6 has %d data rows, want 40", rows)
	}
}

func TestUnknownFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "9"}, &out); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestProfileFlags checks that -cpuprofile, -memprofile and -trace leave
// non-empty files behind without touching the paperfigs output, and that an
// unwritable path is an error rather than a silently missing file.
func TestProfileFlags(t *testing.T) {
	proftest.CheckFlags(t, run, []string{"-fig", "2", "-n", "40", "-rounds", "10", "-workers", "2"})
}
