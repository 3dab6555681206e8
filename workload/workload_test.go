package workload

import (
	"math"
	"strings"
	"testing"
)

// sample collects the first n arrivals of a fresh sampler.
func sample(t *testing.T, s Spec, seed uint64, n int) []float64 {
	t.Helper()
	a := s.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}

func builtinSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	iv, err := NewInterval(60)
	if err != nil {
		t.Fatal(err)
	}
	po, err := NewPoisson(0.5)
	if err != nil {
		t.Fatal(err)
	}
	oo, err := NewParetoOnOff(2, 30, 90, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	di, err := NewDiurnal(3600, 0.8, po)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewFlashCrowd(600, 10, 120, oo)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Spec{
		"interval":     iv,
		"poisson":      po,
		"pareto-onoff": oo,
		"diurnal":      di,
		"flashcrowd":   fc,
	}
}

func TestSpecsDeterministicAndMonotone(t *testing.T) {
	for name, spec := range builtinSpecs(t) {
		t.Run(name, func(t *testing.T) {
			a := sample(t, spec, 42, 2000)
			b := sample(t, spec, 42, 2000)
			prev := 0.0
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("arrival %d differs across identically-seeded samplers: %v vs %v", i, a[i], b[i])
				}
				if a[i] < prev {
					t.Fatalf("arrival %d = %v decreases below %v", i, a[i], prev)
				}
				if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
					t.Fatalf("arrival %d = %v, want finite", i, a[i])
				}
				prev = a[i]
			}
		})
	}
}

func TestRandomSpecsVaryWithSeed(t *testing.T) {
	for _, name := range []string{"poisson", "pareto-onoff", "diurnal", "flashcrowd"} {
		spec := builtinSpecs(t)[name]
		a := sample(t, spec, 1, 100)
		b := sample(t, spec, 2, 100)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 produced identical streams", name)
		}
	}
}

func TestIntervalMatchesDrip(t *testing.T) {
	iv, _ := NewInterval(10)
	a := iv.New(7)
	want := 0.0
	for i := 0; i < 1000; i++ {
		want += 10 // the runtime Every loop accumulates by repeated addition
		if got := a.Next(); got != want {
			t.Fatalf("arrival %d = %v, want %v", i, got, want)
		}
	}
}

func TestPoissonRate(t *testing.T) {
	po, _ := NewPoisson(2)
	const n = 200000
	last := sample(t, po, 9, n)[n-1]
	rate := n / last
	if math.Abs(rate-2) > 0.05 {
		t.Fatalf("empirical rate %v, want ≈ 2", rate)
	}
}

func TestParetoOnOffLongRunRate(t *testing.T) {
	// Long-run arrival rate = Rate · OnMean / (OnMean + OffMean).
	oo, _ := NewParetoOnOff(4, 50, 150, 1.9)
	const n = 400000
	last := sample(t, oo, 3, n)[n-1]
	want := 4.0 * 50 / (50 + 150)
	rate := n / last
	if math.Abs(rate-want)/want > 0.15 {
		t.Fatalf("empirical long-run rate %v, want ≈ %v", rate, want)
	}
}

func TestParetoOnOffDegeneratesToPoissonRate(t *testing.T) {
	oo, _ := NewParetoOnOff(2, 30, 0, 1.5)
	const n = 100000
	last := sample(t, oo, 5, n)[n-1]
	rate := n / last
	if math.Abs(rate-2) > 0.1 {
		t.Fatalf("empirical rate %v with OffMean=0, want ≈ 2", rate)
	}
}

func TestParetoOnOffBurstier(t *testing.T) {
	// The index of dispersion of per-window counts must be far above the
	// Poisson value of 1 for a heavy-tailed ON/OFF source of equal mean rate.
	disp := func(s Spec) float64 {
		a := s.New(11)
		counts := make([]float64, 2000)
		win := 0
		for {
			t := a.Next()
			w := int(t / 100)
			if w >= len(counts) {
				break
			}
			counts[w]++
			win = w
		}
		counts = counts[:win]
		mean, m2 := 0.0, 0.0
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		for _, c := range counts {
			m2 += (c - mean) * (c - mean)
		}
		return m2 / float64(len(counts)) / mean
	}
	po, _ := NewPoisson(1)
	oo, _ := NewParetoOnOff(4, 50, 150, 1.3) // same mean rate of 1
	dPo, dOo := disp(po), disp(oo)
	if dPo > 2 {
		t.Fatalf("poisson dispersion %v, want ≈ 1", dPo)
	}
	if dOo < 5*dPo {
		t.Fatalf("pareto-onoff dispersion %v not clearly above poisson %v", dOo, dPo)
	}
}

func TestWarpInvertsCumulativeProfile(t *testing.T) {
	po, _ := NewPoisson(0.2)
	for name, spec := range map[string]Spec{
		"diurnal":    Diurnal{Period: 3600, Amplitude: 0.9, Inner: po},
		"flashcrowd": FlashCrowd{At: 500, Peak: 15, Decay: 200, Inner: po},
	} {
		t.Run(name, func(t *testing.T) {
			inner := po.New(21)
			warped := spec.New(21).(*warpedArrivals)
			for i := 0; i < 5000; i++ {
				tau := inner.Next()
				tw := warped.Next()
				if got := warped.mod.cum(tw); math.Abs(got-tau) > 1e-7*math.Max(1, tau) {
					t.Fatalf("arrival %d: cum(%v) = %v, want inner time %v", i, tw, got, tau)
				}
			}
		})
	}
}

func TestDiurnalZeroAmplitudeIsIdentity(t *testing.T) {
	po, _ := NewPoisson(1)
	di, _ := NewDiurnal(3600, 0, po)
	inner := po.New(4)
	warped := di.New(4)
	for i := 0; i < 2000; i++ {
		a, b := inner.Next(), warped.Next()
		if math.Abs(a-b) > 1e-7*math.Max(1, a) {
			t.Fatalf("arrival %d: warped %v deviates from inner %v at amplitude 0", i, b, a)
		}
	}
}

func TestFlashCrowdConcentratesArrivals(t *testing.T) {
	po, _ := NewPoisson(0.5)
	fc, _ := NewFlashCrowd(2000, 20, 300, po)
	a := fc.New(17)
	before, during := 0, 0 // [1400, 1700) vs [2000, 2300)
	for {
		t := a.Next()
		if t >= 2300 {
			break
		}
		if t >= 1400 && t < 1700 {
			before++
		}
		if t >= 2000 {
			during++
		}
	}
	if during < 5*before {
		t.Fatalf("flash crowd window saw %d arrivals vs %d in a pre-onset window of equal length; want a clear spike", during, before)
	}
}

func TestFlashCrowdIdentityBeforeOnset(t *testing.T) {
	po, _ := NewPoisson(1)
	fc, _ := NewFlashCrowd(1e9, 20, 300, po)
	inner := po.New(8)
	warped := fc.New(8)
	for i := 0; i < 2000; i++ {
		a, b := inner.Next(), warped.Next()
		if math.Abs(a-b) > 1e-7*math.Max(1, a) {
			t.Fatalf("arrival %d: warped %v deviates from inner %v before onset", i, b, a)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range []string{
		"interval:60",
		"poisson:0.5",
		"pareto-onoff:2:30:90:1.5",
		"diurnal:86400:0.8:poisson:0.5",
		"flashcrowd:3600:20:600:pareto-onoff:2:30:90:1.5",
		"diurnal:86400:0.5:flashcrowd:3600:20:600:poisson:2",
	} {
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if got := spec.String(); got != s {
			t.Errorf("ParseSpec(%q).String() = %q", s, got)
		}
		reparsed, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", spec.String(), err)
		}
		if reparsed != spec {
			t.Errorf("reparse of %q is not identical: %#v vs %#v", s, reparsed, spec)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"nope:1",
		"interval",
		"interval:0",
		"interval:-5",
		"interval:1:2",
		"poisson:abc",
		"poisson:inf",
		"pareto-onoff:2:30:90",
		"pareto-onoff:2:30:90:1",
		"pareto-onoff:2:0:90:1.5",
		"diurnal:3600:0.5",
		"diurnal:3600:1.5:poisson:1",
		"diurnal:0:0.5:poisson:1",
		"flashcrowd:100:5:0:poisson:1",
		"flashcrowd:-1:5:60:poisson:1",
		"flashcrowd:100:5:60:nope:1",
		"replay:",
		"replay:/nonexistent/stream/file",
	} {
		if spec, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) = %v, want error", s, spec)
		} else if !strings.HasPrefix(err.Error(), "workload:") {
			t.Errorf("ParseSpec(%q) error %q not workload-prefixed", s, err)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewInterval(math.Inf(1)); err == nil {
		t.Error("NewInterval(+Inf) accepted")
	}
	if _, err := NewPoisson(math.NaN()); err == nil {
		t.Error("NewPoisson(NaN) accepted")
	}
	if _, err := NewParetoOnOff(1, 1, -1, 1.5); err == nil {
		t.Error("NewParetoOnOff with negative OffMean accepted")
	}
	if _, err := NewDiurnal(10, 0.5, nil); err == nil {
		t.Error("NewDiurnal(nil inner) accepted")
	}
	if _, err := NewFlashCrowd(10, 5, 60, nil); err == nil {
		t.Error("NewFlashCrowd(nil inner) accepted")
	}
	if _, err := NewOutages(0, 0.5, 60); err == nil {
		t.Error("NewOutages(0 zones) accepted")
	}
	if _, err := NewOutages(4, 1.5, 60); err == nil {
		t.Error("NewOutages(p > 1) accepted")
	}
	if _, err := NewOutages(4, 0.5, 0); err == nil {
		t.Error("NewOutages(0 duration) accepted")
	}
}

func TestSamplingDoesNotAllocate(t *testing.T) {
	for name, spec := range builtinSpecs(t) {
		a := spec.New(99)
		a.Next() // warm up
		if allocs := testing.AllocsPerRun(1000, func() { a.Next() }); allocs != 0 {
			t.Errorf("%s: Next allocates %v/op, want 0", name, allocs)
		}
	}
	rec, err := Record(builtinSpecs(t)["poisson"], 99, 10000)
	if err != nil {
		t.Fatal(err)
	}
	a := replayStream(rec, "mem").New(0)
	if allocs := testing.AllocsPerRun(1000, func() { a.Next() }); allocs != 0 {
		t.Errorf("replay: Next allocates %v/op, want 0", allocs)
	}
}

func TestArrivalSeedDecorrelates(t *testing.T) {
	if ArrivalSeed(1) == 1 || ArrivalSeed(1) == ArrivalSeed(2) {
		t.Fatalf("ArrivalSeed must derive a distinct stream: %v %v", ArrivalSeed(1), ArrivalSeed(2))
	}
}
