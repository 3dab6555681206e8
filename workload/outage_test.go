package workload

import (
	"math"
	"testing"

	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/trace"
)

func TestOutageTraceDeterministic(t *testing.T) {
	o, err := NewOutages(4, 0.2, 300)
	if err != nil {
		t.Fatal(err)
	}
	a, err := o.Trace(50, 86400, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Trace(50, 86400, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Segments {
		ai, bi := a.Segments[i].Intervals, b.Segments[i].Intervals
		if len(ai) != len(bi) {
			t.Fatalf("node %d: %d vs %d intervals across identical seeds", i, len(ai), len(bi))
		}
		for j := range ai {
			if ai[j] != bi[j] {
				t.Fatalf("node %d interval %d differs: %v vs %v", i, j, ai[j], bi[j])
			}
		}
	}
	c, err := o.Trace(50, 86400, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Segments {
		if len(a.Segments[i].Intervals) != len(c.Segments[i].Intervals) {
			same = false
			break
		}
		for j, iv := range a.Segments[i].Intervals {
			if iv != c.Segments[i].Intervals[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical outage traces")
	}
}

func TestOutageZoneCorrelation(t *testing.T) {
	o, _ := NewOutages(3, 0.3, 600)
	const n, total = 200, 4 * 86400.0
	tr, err := o.Trace(n, total, 5)
	if err != nil {
		t.Fatal(err)
	}
	zones := netmodel.Zones{K: 3}
	// Every node must match its zone's realization exactly: probing any time
	// point, two nodes of the same zone agree, and the trace honours the
	// netmodel hash so "-network zones:3:..." failure domains coincide.
	rep := map[int]int{} // zone -> representative node
	for i := 0; i < n; i++ {
		z := zones.Zone(protocol.NodeID(i))
		r, ok := rep[z]
		if !ok {
			rep[z] = i
			continue
		}
		for probe := 0.0; probe < total; probe += 97 {
			if tr.Online(i, probe) != tr.Online(r, probe) {
				t.Fatalf("nodes %d and %d share zone %d but disagree at t=%v", i, r, z, probe)
			}
		}
	}
	if len(rep) != 3 {
		t.Fatalf("hash placed %d zones among %d nodes, want 3", len(rep), n)
	}
}

func TestOutageDowntimeFraction(t *testing.T) {
	// With P = 0.25 each zone is down ~25% of the time.
	o, _ := NewOutages(8, 0.25, 500)
	tr, err := o.Trace(8, 2e6, 11)
	if err != nil {
		t.Fatal(err)
	}
	down, probes := 0, 0
	for i := 0; i < 8; i++ {
		for probe := 1.0; probe < 2e6; probe += 211 {
			probes++
			if !tr.Online(i, probe) {
				down++
			}
		}
	}
	frac := float64(down) / float64(probes)
	if math.Abs(frac-0.25) > 0.05 {
		t.Fatalf("downtime fraction %v, want ≈ 0.25", frac)
	}
}

func TestOutageZeroAndFullProbability(t *testing.T) {
	always, _ := NewOutages(4, 0, 300)
	tr, err := always.Trace(10, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := tr.Segments[i].Intervals; len(got) != 1 || got[0] != (trace.Interval{Start: 0, End: 10000}) {
			t.Fatalf("node %d online %v with P=0, want all of [0, 10000]", i, got)
		}
	}
	never, _ := NewOutages(4, 1, 300)
	tr, err = never.Trace(10, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got := tr.Segments[i].Intervals; len(got) != 0 {
			t.Fatalf("node %d online %v with P=1, want never", i, got)
		}
	}
}

func TestParseOutages(t *testing.T) {
	o, err := ParseOutages([]string{"4", "0.1", "900"})
	if err != nil {
		t.Fatal(err)
	}
	if o != (Outages{Zones: 4, P: 0.1, Duration: 900}) {
		t.Fatalf("ParseOutages = %+v", o)
	}
	if got := o.String(); got != "outage:4:0.1:900" {
		t.Fatalf("String() = %q", got)
	}
	for _, args := range [][]string{
		{},
		{"4", "0.1"},
		{"x", "0.1", "900"},
		{"4", "x", "900"},
		{"4", "0.1", "x"},
		{"0", "0.1", "900"},
		{"4", "2", "900"},
	} {
		if _, err := ParseOutages(args); err == nil {
			t.Errorf("ParseOutages(%v) accepted", args)
		}
	}
}
