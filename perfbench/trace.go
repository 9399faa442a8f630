package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans of one
// sweep share its Sweep ID; Parent is the enclosing span's ID (0 for a
// sweep's root).
type span struct {
	Name       string
	ID, Parent int
	Sweep      int
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the whole run and writes them out once
// at the end, so recording costs an append and never I/O. It is safe for
// concurrent use: fleet progress callbacks arrive on coordinator
// goroutines.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID. A nil tracer records
// nothing, so untraced passes share the traced code paths for free.
func (t *tracer) add(name string, parent, sweep int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Sweep: sweep,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	return id
}

// reserve allocates the ID of a span whose children are recorded before
// it ends; fill completes it.
func (t *tracer) reserve(name string, parent, sweep int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Sweep: sweep})
	return id
}

func (t *tracer) fill(id int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start, t.spans[id-1].End = start.Sub(t.epoch), end.Sub(t.epoch)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTime aggregates every span of one name.
type layerTime struct {
	count       int
	total, self time.Duration
	durations   []time.Duration
}

func (l layerTime) meanTotal() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.total / time.Duration(l.count)
}

// layers aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover (overlapping
// children are merged, so concurrent children are not double-counted).
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTime{}
			out[s.Name] = l
		}
		d := s.End - s.Start
		l.count++
		l.total += d
		l.durations = append(l.durations, d)
		l.self += d - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			sum += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return sum + curE - curS
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON, which any
// trace viewer (chrome://tracing, Perfetto) opens directly.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "sweep": s.Sweep},
		}
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
