package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// span is one timed interval at a layer boundary. Spans of one rep (or one
// relay hop) share the tree rooted at the span with parent 0; a child's
// interval lies inside its parent's, and a layer's self time is its span
// minus the part its children cover.
type span struct {
	name       string
	id, parent int32
	start, end int64 // nanoseconds since clockBase
}

// maxSpans bounds the span log kept in memory. Aggregates (counts, summed
// durations) keep accumulating past it, so the per-layer metrics cover the
// whole run; only the written file is a prefix.
const maxSpans = 200_000

// spanLog collects spans in memory during a traced pass and is written out
// once, when the benchmark ends. It is used from one goroutine at a time.
type spanLog struct {
	spans []span
	next  int32
}

// newID reserves a span identifier, so children can name their parent before
// the parent's end time is known.
func (l *spanLog) newID() int32 {
	l.next++
	return l.next
}

func (l *spanLog) full() bool { return len(l.spans) >= maxSpans }

func (l *spanLog) add(name string, id, parent int32, start, end int64) {
	if l.full() {
		return
	}
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, start: start, end: end})
}

// write renders the log as Chrome trace-event JSON (complete "X" events,
// microsecond timestamps), loadable in chrome://tracing or Perfetto.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range l.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
