package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the benchmark's own files, around the calls into each layer's public
// functions; nothing inside the program is instrumented.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int // index of the causing span, -1 for a root
	Query  int // index of the request in its round, shared by a request's spans
	Lane   int // client (or ladder) lane, the trace viewer's thread
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how tracing is switched off for the measured rounds.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index for children to point at.
func (t *tracer) add(name string, lane, query int, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, start, end, parent, query, lane})
	return len(t.spans) - 1
}

// time runs fn inside a root span on the ladder lane and returns how long it took.
func (t *tracer) time(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, ladderLane, -1, start, end, -1)
	return end.Sub(start)
}

const ladderLane = 9

// outerSpan names the outermost call of a request, by backend.
var outerSpan = map[string]string{"inproc": "core.solvespec", "tcp": "core.solvespec.tcp", "http": "http.roundtrip"}

// request records one request of a round: the outermost call, and under it
// a core.solve span with the six phases laid out back to back from the
// durations the reply reports, starting where the call started (the reply
// says how long each phase took, not when). What is left of the outer span
// is its self time: dispatch, canonicalisation, result assembly and
// validation for an engine; those plus HTTP, JSON, cache and engine checkout
// for the service.
func (t *tracer) request(backend string, lane, query int, start, end time.Time, a answer) {
	if t == nil {
		return
	}
	root := t.add(outerSpan[backend], lane, query, start, end, -1)
	if len(a.phases) == 0 {
		return
	}
	var sum float64
	for _, p := range a.phases {
		sum += p.seconds
	}
	at := start
	solve := t.add("core.solve", lane, query, at, at.Add(time.Duration(sum*float64(time.Second))), root)
	for _, p := range a.phases {
		next := at.Add(time.Duration(p.seconds * float64(time.Second)))
		t.add("core.phase: "+p.name, lane, query, at, next, solve)
		at = next
	}
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// chrome://tracing and ui.perfetto.dev open as a timeline.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	var t0 time.Time // the earliest start: spans are recorded after the fact, not in order
	for i, s := range t.spans {
		if i == 0 || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			Dur:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Args: map[string]int{"id": i, "parent": s.Parent, "query": s.Query},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
