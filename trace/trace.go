// Package trace models node availability over time. The paper evaluates the
// token account protocols over a real smartphone trace collected by the
// STUNner measurement app (Berta et al., P2P 2014): 1191 users, cut into
// 40,658 two-day segments, where a user counts as online while the phone is
// on a charger, has a network connection of at least 1 Mbit/s, and has been
// in that state for at least one minute.
//
// That trace is not publicly available, so this package provides:
//
//   - a Trace type holding one availability segment (a list of online
//     intervals within a fixed duration) per simulated node,
//   - a synthetic smartphone-trace generator (Smartphone) whose aggregate
//     behaviour reproduces the published characteristics of the real trace
//     (diurnal charging pattern, roughly 30% of users never online during a
//     2-day window, higher churn during the day, see Figure 1 of the paper),
//   - aggregate statistics matching Figure 1, and
//   - a CSV reader/writer so that a real trace can be substituted when
//     available.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/szte-dcs/tokenaccount/internal/rng"
)

// Day and Hour are convenient duration constants expressed in seconds, the
// time unit used throughout the simulator.
const (
	Hour = 3600.0
	Day  = 24 * Hour
)

// Interval is a half-open time span [Start, End) during which a node is
// online.
type Interval struct {
	Start float64
	End   float64
}

// Segment is the availability of one node over the trace duration: a sorted
// list of non-overlapping online intervals.
type Segment struct {
	Intervals []Interval
}

// online reports whether the segment is online at time t.
func (s *Segment) online(t float64) bool {
	// Binary search for the first interval ending after t.
	idx := sort.Search(len(s.Intervals), func(i int) bool { return s.Intervals[i].End > t })
	return idx < len(s.Intervals) && s.Intervals[idx].Start <= t
}

// everOnlineBy reports whether the segment has been online at any point up to
// and including time t.
func (s *Segment) everOnlineBy(t float64) bool {
	return len(s.Intervals) > 0 && s.Intervals[0].Start <= t
}

// normalize sorts the intervals, drops empty ones and merges overlaps.
func (s *Segment) normalize(duration float64) {
	ivs := s.Intervals[:0]
	for _, iv := range s.Intervals {
		if iv.Start < 0 {
			iv.Start = 0
		}
		if iv.End > duration {
			iv.End = duration
		}
		if iv.End > iv.Start {
			ivs = append(ivs, iv)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
	merged := ivs[:0]
	for _, iv := range ivs {
		if n := len(merged); n > 0 && iv.Start <= merged[n-1].End {
			if iv.End > merged[n-1].End {
				merged[n-1].End = iv.End
			}
			continue
		}
		merged = append(merged, iv)
	}
	s.Intervals = merged
}

// Trace is a set of availability segments, one per node, over a common
// duration.
type Trace struct {
	// Duration is the length of the trace in seconds.
	Duration float64
	// Segments holds one availability segment per node.
	Segments []Segment
}

// N returns the number of nodes covered by the trace.
func (tr *Trace) N() int { return len(tr.Segments) }

// Online reports whether the given node is online at time t. Nodes outside
// the trace are treated as permanently offline.
func (tr *Trace) Online(node int, t float64) bool {
	if node < 0 || node >= len(tr.Segments) {
		return false
	}
	return tr.Segments[node].online(t)
}

// AlwaysOnline returns a trace in which every one of n nodes is online for
// the whole duration. It represents the paper's failure-free scenario, which
// runs pass as a nil Trace; it stays exported as a fixture, the base that
// tests in runtime and simnet edit into churn schedules.
func AlwaysOnline(n int, duration float64) *Trace {
	tr := &Trace{Duration: duration, Segments: make([]Segment, n)}
	for i := range tr.Segments {
		tr.Segments[i].Intervals = []Interval{{Start: 0, End: duration}}
	}
	return tr
}

// Bin is one time bucket of aggregate trace statistics (Figure 1 of the
// paper).
type Bin struct {
	// Time is the start of the bucket.
	Time float64
	// OnlineFrac is the fraction of nodes online at the start of the bucket.
	OnlineFrac float64
	// EverOnlineFrac is the fraction of nodes that have been online at least
	// once up to the start of the bucket.
	EverOnlineFrac float64
	// LoginFrac is the fraction of nodes that log in during the bucket.
	LoginFrac float64
	// LogoutFrac is the fraction of nodes that log out during the bucket.
	LogoutFrac float64
}

// Stats aggregates the trace into bins of the given width, reproducing the
// quantities plotted in Figure 1: the proportion of users online, the
// proportion that have been online, and the proportion logging in and out per
// bin.
func (tr *Trace) Stats(binWidth float64) ([]Bin, error) {
	if binWidth <= 0 {
		return nil, fmt.Errorf("trace: non-positive bin width %v", binWidth)
	}
	if tr.N() == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	nBins := int(tr.Duration / binWidth)
	if float64(nBins)*binWidth < tr.Duration {
		nBins++
	}
	bins := make([]Bin, nBins)
	n := float64(tr.N())
	for b := range bins {
		t := float64(b) * binWidth
		bins[b].Time = t
		online, ever := 0, 0
		for i := range tr.Segments {
			if tr.Segments[i].online(t) {
				online++
			}
			if tr.Segments[i].everOnlineBy(t) {
				ever++
			}
		}
		bins[b].OnlineFrac = float64(online) / n
		bins[b].EverOnlineFrac = float64(ever) / n
	}
	for i := range tr.Segments {
		// Every interval starts with a login and ends with a logout.
		for _, iv := range tr.Segments[i].Intervals {
			if b := int(iv.Start / binWidth); b >= 0 && b < nBins {
				bins[b].LoginFrac += 1 / n
			}
		}
		for _, iv := range tr.Segments[i].Intervals {
			if b := int(iv.End / binWidth); b >= 0 && b < nBins {
				bins[b].LogoutFrac += 1 / n
			}
		}
	}
	return bins, nil
}

// PermanentlyOfflineFraction returns the fraction of nodes that are never
// online during the trace.
func (tr *Trace) PermanentlyOfflineFraction() float64 {
	if tr.N() == 0 {
		return 0
	}
	off := 0
	for i := range tr.Segments {
		if len(tr.Segments[i].Intervals) == 0 {
			off++
		}
	}
	return float64(off) / float64(tr.N())
}

// WriteCSV writes the trace in "node,start,end" CSV form (one line per online
// interval) preceded by a "# duration=<seconds>" header comment.
func (tr *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# duration=%g\n", tr.Duration); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "node,start,end"); err != nil {
		return err
	}
	for i := range tr.Segments {
		for _, iv := range tr.Segments[i].Intervals {
			if _, err := fmt.Fprintf(bw, "%d,%g,%g\n", i, iv.Start, iv.End); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV (or an external trace converted
// to the same format). n is the number of nodes; intervals referring to nodes
// ≥ n are rejected, as are malformed intervals — a negative start, an end not
// after the start, or an end past the declared duration — each with the line
// number, rather than silently normalizing bad data away. No command reads a
// trace back yet; it stays exported as the fuzzed half of the CSV round trip
// (FuzzCSVRoundTrip) and as the way tracegen's tests read its output.
func ReadCSV(r io.Reader, n int) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	tr := &Trace{Segments: make([]Segment, n)}
	lineNo := 0
	durationDeclared := false
	maxEnd, maxEndLine := 0.0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if eq := strings.Index(line, "duration="); eq >= 0 {
				d, err := strconv.ParseFloat(strings.TrimSpace(line[eq+len("duration="):]), 64)
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad duration: %w", lineNo, err)
				}
				tr.Duration = d
				durationDeclared = true
			}
			continue
		}
		if strings.HasPrefix(line, "node,") {
			continue // header
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("trace: line %d: expected 3 fields, got %d", lineNo, len(parts))
		}
		node, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad node id: %w", lineNo, err)
		}
		if node < 0 || node >= n {
			return nil, fmt.Errorf("trace: line %d: node %d outside [0,%d)", lineNo, node, n)
		}
		start, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad start: %w", lineNo, err)
		}
		end, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad end: %w", lineNo, err)
		}
		if start < 0 || math.IsNaN(start) || math.IsInf(start, 0) {
			return nil, fmt.Errorf("trace: line %d: interval start %g, need ≥ 0 and finite", lineNo, start)
		}
		if end <= start || math.IsNaN(end) || math.IsInf(end, 0) {
			return nil, fmt.Errorf("trace: line %d: interval end %g not after start %g", lineNo, end, start)
		}
		if durationDeclared && end > tr.Duration {
			return nil, fmt.Errorf("trace: line %d: interval end %g extends past the declared duration %g", lineNo, end, tr.Duration)
		}
		if end > maxEnd {
			maxEnd, maxEndLine = end, lineNo
		}
		tr.Segments[node].Intervals = append(tr.Segments[node].Intervals, Interval{Start: start, End: end})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	if durationDeclared && maxEnd > tr.Duration {
		// The duration header appeared after the offending interval line.
		return nil, fmt.Errorf("trace: line %d: interval end %g extends past the declared duration %g", maxEndLine, maxEnd, tr.Duration)
	}
	if tr.Duration == 0 {
		// Infer the duration from the data if no header was present.
		for i := range tr.Segments {
			for _, iv := range tr.Segments[i].Intervals {
				if iv.End > tr.Duration {
					tr.Duration = iv.End
				}
			}
		}
	}
	for i := range tr.Segments {
		tr.Segments[i].normalize(tr.Duration)
	}
	return tr, nil
}

// SmartphoneConfig parameterizes the synthetic smartphone trace generator.
// The charging behaviour itself is fixed (see the smartphone* constants),
// tuned so that the aggregate statistics resemble Figure 1 of the paper.
type SmartphoneConfig struct {
	// Users is the number of users (segments) to generate.
	Users int
	// Duration is the segment length; the paper uses 2 days.
	Duration float64
	// PermanentlyOffline is the fraction of users that never satisfy the
	// online definition during the window (~30% in the paper).
	PermanentlyOffline float64
	// Seed drives the deterministic generator.
	Seed uint64
}

// The charging behaviour of the smartphone trace's active users.
const (
	// nightOwlFraction is the fraction of (active) users that reliably
	// charge their phone overnight.
	nightOwlFraction = 0.75
	// nightStartMeanHour and nightStartStdHour describe when overnight
	// charging begins (GMT hours; the paper's users are mostly European).
	nightStartMeanHour = 21.5
	nightStartStdHour  = 1.5
	// nightDurationMeanHours and nightDurationStdHours describe how long
	// the overnight charging session lasts.
	nightDurationMeanHours = 8.5
	nightDurationStdHours  = 2.0
	// daySessionsPerDay is the expected number of extra daytime charging
	// sessions per day per active user.
	daySessionsPerDay = 1.2
	// daySessionMeanHours is the mean length of a daytime session
	// (exponentially distributed).
	daySessionMeanHours = 1.0
	// minSessionSeconds drops sessions shorter than this (the paper
	// requires at least one minute on the charger).
	minSessionSeconds = 60
)

// DefaultSmartphoneConfig returns the configuration used by the experiments:
// a 2-day window with ~30% permanently offline users.
func DefaultSmartphoneConfig(users int, seed uint64) SmartphoneConfig {
	return SmartphoneConfig{
		Users:              users,
		Duration:           2 * Day,
		PermanentlyOffline: 0.30,
		Seed:               seed,
	}
}

func (c SmartphoneConfig) validate() error {
	switch {
	case c.Users < 1:
		return fmt.Errorf("trace: SmartphoneConfig.Users = %d, need ≥ 1", c.Users)
	case !(c.Duration > 0) || math.IsInf(c.Duration, 1):
		return fmt.Errorf("trace: SmartphoneConfig.Duration = %v, need > 0 and finite", c.Duration)
	case !probability(c.PermanentlyOffline):
		return fmt.Errorf("trace: PermanentlyOffline = %v outside [0,1]", c.PermanentlyOffline)
	}
	return nil
}

// probability reports whether p lies in [0, 1]; NaN fails both comparisons,
// so a plain p < 0 || p > 1 check would let it through.
func probability(p float64) bool { return p >= 0 && p <= 1 }

// Smartphone generates a synthetic availability trace with the diurnal
// charging pattern described in the paper (§4.1 and Figure 1): more phones
// online at night (on chargers), lower churn at night, roughly 30% of users
// never online, per-user behaviour varying randomly.
func Smartphone(cfg SmartphoneConfig) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tr := &Trace{Duration: cfg.Duration, Segments: make([]Segment, cfg.Users)}
	days := int(cfg.Duration/Day) + 1
	for u := 0; u < cfg.Users; u++ {
		src := rng.New(rng.Derive(cfg.Seed, uint64(u)+0x74726163))
		if src.Float64() < cfg.PermanentlyOffline {
			continue // this user never comes online in the window
		}
		seg := &tr.Segments[u]
		nightOwl := src.Float64() < nightOwlFraction
		// Per-user jitter of the nightly schedule, stable across the days of
		// the segment (people are creatures of habit).
		personalStart := nightStartMeanHour + src.NormFloat64()*nightStartStdHour
		personalLen := nightDurationMeanHours + src.NormFloat64()*nightDurationStdHours
		for d := -1; d < days; d++ { // d = -1 catches sessions spilling in from before the window
			if nightOwl {
				start := float64(d)*Day + personalStart*Hour + src.NormFloat64()*0.5*Hour
				length := (personalLen + src.NormFloat64()*0.5) * Hour
				if length > minSessionSeconds {
					seg.Intervals = append(seg.Intervals, Interval{Start: start, End: start + length})
				}
			}
			// Daytime charging sessions: Poisson-ish count via thinning.
			sessions := poisson(src, daySessionsPerDay)
			for s := 0; s < sessions; s++ {
				start := float64(d)*Day + (7+11*src.Float64())*Hour // between 07:00 and 18:00
				length := src.ExpFloat64() * daySessionMeanHours * Hour
				if length > minSessionSeconds {
					seg.Intervals = append(seg.Intervals, Interval{Start: start, End: start + length})
				}
			}
		}
		seg.normalize(cfg.Duration)
	}
	return tr, nil
}

// poisson draws a Poisson-distributed integer with the given mean using
// Knuth's method (adequate for the small means used here).
func poisson(src *rng.Source, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= src.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
