package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// its id; parent is the span that caused this one (0 at the front door).
// In the ladder the child spans are replays of the same request at a
// deeper exported entry point, so a parent's self time is its duration
// minus its children's.
type span struct {
	Request  int    `json:"request"`
	Span     int    `json:"span"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The run records
// them from one goroutine at a time.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	requests int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// request opens a new request and returns its id.
func (t *tracer) request() int {
	t.requests++
	return t.requests
}

// add records one finished call and returns its span id.
func (t *tracer) add(request, parent int, name string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Request: request, Span: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: (start.Sub(t.epoch) + d).Nanoseconds(),
	})
	return id
}

// timed runs fn as a span and returns its id and duration.
func (t *tracer) timed(request, parent int, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	d := time.Since(start)
	return t.add(request, parent, name, start, d), d
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
