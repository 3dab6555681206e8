package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The replayable stream format is a compact line-oriented text file: a
// versioned header comment, metadata comments recording how the stream was
// produced, and one "a,<time>" line per arrival with %g-formatted times (Go's
// %g emits the shortest decimal that parses back to the identical float64, so
// a write/read round trip is bit-exact):
//
//	# workload-stream v1
//	# spec=flashcrowd:3600:20:600:poisson:0.5
//	# seed=42
//	# duration=14400
//	a,1.9872136
//	a,3.5701214
//	...
//
// A recorded stream replayed through "replay:<path>" therefore reproduces the
// original run's injections bit-identically even after the generator code
// changes, which keeps sweep rows comparable across engine versions. Outage
// realizations need no format of their own: Outages.Trace emits an ordinary
// trace.Trace, recorded and replayed through the existing trace CSV files.

// streamMagic is the first line of every stream file.
const streamMagic = "# workload-stream v1"

// maxStreamArrivals bounds Record against a mis-parameterized spec whose
// arrivals never pass the requested duration (2^27 ≈ 134M arrivals ≈ 2 GiB of
// times — far past any practical experiment).
const maxStreamArrivals = 1 << 27

// Stream is a recorded arrival-process realization: the sampled times plus
// the provenance needed to reproduce or audit them.
type Stream struct {
	// Spec is the parseable form of the generator that produced the stream
	// (empty for externally produced files).
	Spec string
	// Seed is the sampler seed the stream was recorded with.
	Seed uint64
	// Duration is the horizon the stream covers: every arrival ≤ Duration
	// that the generator produces is present.
	Duration float64
	// Times are the arrival times, non-decreasing.
	Times []float64
}

// Record samples spec with the given seed and captures every arrival up to
// and including duration.
func Record(spec Spec, seed uint64, duration float64) (*Stream, error) {
	if !(duration > 0) || math.IsInf(duration, 1) {
		return nil, fmt.Errorf("workload: record duration = %g, need > 0 and finite", duration)
	}
	s := &Stream{Spec: spec.String(), Seed: seed, Duration: duration}
	a := spec.New(seed)
	for {
		t := a.Next()
		if t > duration || math.IsNaN(t) {
			return s, nil
		}
		if len(s.Times) >= maxStreamArrivals {
			return nil, fmt.Errorf("workload: recording %q produced over %d arrivals within %g s; the spec's rate is far past any practical experiment",
				s.Spec, maxStreamArrivals, duration)
		}
		s.Times = append(s.Times, t)
	}
}

// Write emits the stream in the replayable text format.
func (s *Stream) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, streamMagic)
	if s.Spec != "" {
		fmt.Fprintf(bw, "# spec=%s\n", s.Spec)
	}
	fmt.Fprintf(bw, "# seed=%d\n", s.Seed)
	fmt.Fprintf(bw, "# duration=%g\n", s.Duration)
	for _, t := range s.Times {
		if _, err := fmt.Fprintf(bw, "a,%g\n", t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadStream parses a stream previously emitted by Write. Malformed lines,
// negative or decreasing times, and a missing magic header are rejected with
// line-numbered errors. Only OpenReplay reads a stream in production; it
// stays exported as the fuzzed half of the Write round trip
// (FuzzStreamRoundTrip, FuzzReadStream) and as the way tracegen's tests read
// its output.
func ReadStream(r io.Reader) (*Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	s := &Stream{}
	sawMagic := false
	prev := 0.0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case !sawMagic:
			if line != streamMagic {
				return nil, fmt.Errorf("workload: line %d: not a workload stream (want %q header)", lineNo, streamMagic)
			}
			sawMagic = true
		case strings.HasPrefix(line, "#"):
			meta := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			key, val, ok := strings.Cut(meta, "=")
			if !ok {
				continue // free-form comment
			}
			val = strings.TrimSpace(val)
			switch strings.TrimSpace(key) {
			case "spec":
				s.Spec = val
			case "seed":
				seed, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("workload: line %d: bad seed: %v", lineNo, err)
				}
				s.Seed = seed
			case "duration":
				d, err := strconv.ParseFloat(val, 64)
				if err != nil || !(d > 0) || math.IsInf(d, 1) {
					return nil, fmt.Errorf("workload: line %d: bad duration %q, need > 0 and finite", lineNo, val)
				}
				s.Duration = d
			}
		case strings.HasPrefix(line, "a,"):
			t, err := strconv.ParseFloat(line[len("a,"):], 64)
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: bad arrival time: %v", lineNo, err)
			}
			if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return nil, fmt.Errorf("workload: line %d: arrival time %g, need ≥ 0 and finite", lineNo, t)
			}
			if t < prev {
				return nil, fmt.Errorf("workload: line %d: arrival time %g decreases below %g; streams must be non-decreasing", lineNo, t, prev)
			}
			prev = t
			s.Times = append(s.Times, t)
		default:
			return nil, fmt.Errorf("workload: line %d: unrecognized record %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading stream: %w", err)
	}
	if !sawMagic {
		return nil, fmt.Errorf("workload: empty input is not a workload stream (want %q header)", streamMagic)
	}
	if s.Duration == 0 {
		if n := len(s.Times); n > 0 {
			s.Duration = s.Times[n-1]
		}
	}
	return s, nil
}

// Replay is the Spec wrapper around a recorded stream: New ignores the seed
// (the randomness was spent at record time) and replays the times verbatim,
// returning +Inf once the stream is exhausted.
type Replay struct {
	// Path is the file the stream came from, used for the spec form; streams
	// built in memory carry a caller-chosen label here.
	Path   string
	stream *Stream
}

// NewReplay loads a recorded stream from path and wraps it for replay.
func NewReplay(path string) (Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return Replay{}, fmt.Errorf("workload: replay: %w", err)
	}
	defer f.Close()
	s, err := ReadStream(f)
	if err != nil {
		return Replay{}, fmt.Errorf("workload: replay %s: %w", path, err)
	}
	return Replay{Path: path, stream: s}, nil
}

// replayStream wraps an in-memory stream for replay; label stands in for the
// file path in the spec form.
func replayStream(s *Stream, label string) Replay {
	return Replay{Path: label, stream: s}
}

// New implements Spec. The seed is ignored: a replayed stream is the same
// realization under every seed, which is the point.
func (r Replay) New(uint64) Arrivals {
	return &replayArrivals{times: r.stream.Times}
}

// String renders the spec in its parseable form.
func (r Replay) String() string { return "replay:" + r.Path }

type replayArrivals struct {
	times []float64
	i     int
}

func (a *replayArrivals) Next() float64 {
	if a.i >= len(a.times) {
		return math.Inf(1)
	}
	t := a.times[a.i]
	a.i++
	return t
}
