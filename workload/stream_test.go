package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	for name, spec := range builtinSpecs(t) {
		t.Run(name, func(t *testing.T) {
			rec, err := Record(spec, 42, 7200)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Times) == 0 {
				t.Fatal("recorded no arrivals over 7200 s")
			}
			var buf bytes.Buffer
			if err := rec.Write(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadStream(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Spec != spec.String() || got.Seed != 42 || got.Duration != 7200 {
				t.Fatalf("metadata lost: %+v", got)
			}
			if len(got.Times) != len(rec.Times) {
				t.Fatalf("%d times read, %d recorded", len(got.Times), len(rec.Times))
			}
			for i := range rec.Times {
				if got.Times[i] != rec.Times[i] {
					t.Fatalf("time %d: %v read vs %v recorded (must be bit-exact)", i, got.Times[i], rec.Times[i])
				}
			}
		})
	}
}

func TestReplayMatchesLiveSampler(t *testing.T) {
	spec := builtinSpecs(t)["pareto-onoff"]
	rec, err := Record(spec, 13, 36000)
	if err != nil {
		t.Fatal(err)
	}
	live := spec.New(13)
	replayed := replayStream(rec, "mem").New(999) // seed must be ignored
	for i := range rec.Times {
		l, r := live.Next(), replayed.Next()
		if l != r {
			t.Fatalf("arrival %d: live %v vs replay %v", i, l, r)
		}
	}
	if got := replayed.Next(); !math.IsInf(got, 1) {
		t.Fatalf("exhausted replay returned %v, want +Inf", got)
	}
}

func TestReplayFromFile(t *testing.T) {
	spec := builtinSpecs(t)["flashcrowd"]
	rec, err := Record(spec, 5, 5000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crowd.stream")
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec("replay:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if got := parsed.String(); got != "replay:"+path {
		t.Fatalf("String() = %q", got)
	}
	a, b := spec.New(5), parsed.New(0)
	for i := range rec.Times {
		l, r := a.Next(), b.Next()
		if l != r {
			t.Fatalf("arrival %d: live %v vs file replay %v", i, l, r)
		}
	}
}

func TestReadStreamErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":           "",
		"no-magic":        "a,1\n",
		"wrong-magic":     "# workload-stream v9\na,1\n",
		"bad-arrival":     "# workload-stream v1\na,abc\n",
		"negative":        "# workload-stream v1\na,-1\n",
		"nan":             "# workload-stream v1\na,NaN\n",
		"inf":             "# workload-stream v1\na,+Inf\n",
		"decreasing":      "# workload-stream v1\na,5\na,4\n",
		"unknown-record":  "# workload-stream v1\nb,5\n",
		"bad-seed":        "# workload-stream v1\n# seed=x\na,1\n",
		"bad-duration":    "# workload-stream v1\n# duration=x\na,1\n",
		"negative-durate": "# workload-stream v1\n# duration=-7\na,1\n",
	} {
		if s, err := ReadStream(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %d times", name, len(s.Times))
		}
	}
	// Free-form comments and blank lines are tolerated.
	s, err := ReadStream(strings.NewReader("# workload-stream v1\n\n# a note\n# spec=poisson:1\na,1\na,1\na,2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Times) != 3 || s.Spec != "poisson:1" || s.Duration != 2.5 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestRecordRejectsBadDuration(t *testing.T) {
	spec := builtinSpecs(t)["poisson"]
	for _, d := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := Record(spec, 1, d); err == nil {
			t.Errorf("Record with duration %v accepted", d)
		}
	}
}

// FuzzStreamRoundTrip is the replay-equivalence property test: any generated
// stream must survive Write → ReadStream bit-exactly, and ReadStream must
// never panic or accept a decreasing sequence from arbitrary input.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add(uint64(1), 0.5, 3600.0)
	f.Add(uint64(42), 10.0, 100.0)
	f.Add(uint64(0), 1e-3, 50000.0)
	f.Fuzz(func(t *testing.T, seed uint64, rate, duration float64) {
		if !(rate > 1e-6) || rate > 100 || !(duration > 1) || duration > 1e6 || rate*duration > 5e5 {
			t.Skip()
		}
		spec, err := NewPoisson(rate)
		if err != nil {
			t.Skip()
		}
		rec, err := Record(spec, seed, duration)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if got.Seed != rec.Seed || got.Duration != rec.Duration || got.Spec != rec.Spec {
			t.Fatalf("metadata lost: %+v vs %+v", got, rec)
		}
		if len(got.Times) != len(rec.Times) {
			t.Fatalf("%d vs %d times", len(got.Times), len(rec.Times))
		}
		for i := range rec.Times {
			if got.Times[i] != rec.Times[i] {
				t.Fatalf("time %d: %v vs %v", i, got.Times[i], rec.Times[i])
			}
		}
	})
}

// FuzzReadStream feeds arbitrary bytes to the parser: it must either fail
// cleanly or return a valid (non-decreasing, finite) stream.
func FuzzReadStream(f *testing.F) {
	f.Add("# workload-stream v1\na,1\na,2\n")
	f.Add("# workload-stream v1\n# spec=poisson:1\n# seed=3\n# duration=10\na,0.5\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadStream(strings.NewReader(in))
		if err != nil {
			return
		}
		prev := 0.0
		for i, tm := range s.Times {
			if tm < prev || math.IsNaN(tm) || math.IsInf(tm, 0) {
				t.Fatalf("accepted invalid time %v at %d after %v", tm, i, prev)
			}
			prev = tm
		}
	})
}
