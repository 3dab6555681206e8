package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzCSVRoundTrip is the round-trip property test: any trace the synthetic
// generator can produce must survive WriteCSV → ReadCSV with identical Online
// answers at every probe point (WriteCSV emits normalized intervals with
// %g-formatted times, which parse back to the identical float64).
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add(uint64(1), 10, 0.3, 2.0)
	f.Add(uint64(42), 3, 0.0, 0.1)
	f.Add(uint64(7), 25, 0.9, 7.5)
	f.Fuzz(func(t *testing.T, seed uint64, users int, permOffline, days float64) {
		if users < 1 || users > 64 || permOffline < 0 || permOffline > 1 ||
			!(days > 0) || days > 10 {
			t.Skip()
		}
		cfg := DefaultSmartphoneConfig(users, seed)
		cfg.PermanentlyOffline = permOffline
		cfg.Duration = days * Day
		tr, err := Smartphone(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(buf.Bytes()), users)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Duration != tr.Duration {
			t.Fatalf("duration %v round-tripped to %v", tr.Duration, back.Duration)
		}
		for node := 0; node < users; node++ {
			for probe := 0.0; probe <= tr.Duration; probe += tr.Duration / 512 {
				if tr.Online(node, probe) != back.Online(node, probe) {
					t.Fatalf("node %d at t=%v: online %v before, %v after round trip",
						node, probe, tr.Online(node, probe), back.Online(node, probe))
				}
			}
			a, b := tr.Segments[node].Intervals, back.Segments[node].Intervals
			if len(a) != len(b) {
				t.Fatalf("node %d: %d intervals round-tripped to %d", node, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("node %d interval %d: %v round-tripped to %v", node, j, a[j], b[j])
				}
			}
		}
	})
}

// FuzzReadCSV feeds arbitrary input to the parser: it must fail cleanly or
// return a trace whose intervals are normalized, in range and non-empty.
func FuzzReadCSV(f *testing.F) {
	f.Add("# duration=100\nnode,start,end\n0,0,10\n1,20,30\n")
	f.Add("0,5,80\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadCSV(strings.NewReader(in), 8)
		if err != nil {
			return
		}
		for node := range tr.Segments {
			prevEnd := 0.0
			for _, iv := range tr.Segments[node].Intervals {
				if iv.Start < 0 || iv.End <= iv.Start || iv.End > tr.Duration {
					t.Fatalf("node %d: accepted invalid interval %v (duration %v)", node, iv, tr.Duration)
				}
				if iv.Start < prevEnd {
					t.Fatalf("node %d: intervals not normalized: %v overlaps previous end %v", node, iv, prevEnd)
				}
				prevEnd = iv.End
			}
		}
	})
}
