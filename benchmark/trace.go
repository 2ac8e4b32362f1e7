package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own side of each call (the engine is not
// instrumented); all spans of one question or request share Op, and
// Parent names the span that caused this one (0 for a root).
//
// An aggregated span (Count > 0) stands for many short calls made
// inside its parent — the distance-oracle calls of one chase run. Its
// interval is not contiguous: End − Start is the summed busy time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends; write dumps them as
// one JSON file. It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span with known bounds (ns since the trace began) and
// returns its id.
func (t *tracer) add(op, parent int, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// begin opens a span now and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	return t.add(op, parent, name, int64(time.Since(t.t0)), 0)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// aggregate records count calls totalling busy inside parent as one
// child span.
func (t *tracer) aggregate(op, parent int, name string, count int64, busy time.Duration) {
	start := t.spans[parent-1].Start
	id := t.add(op, parent, name, start, start+int64(busy))
	t.spans[id-1].Count = count
}

// covered returns, indexed by span id, the time each span's direct
// children cover.
func (t *tracer) covered() []int64 {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += s.End - s.Start
	}
	return covered
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover — the layer's own share of the interval.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := t.covered()
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return self
}

// selfTimesMS is selfTimes in milliseconds, for the detail line.
func (t *tracer) selfTimesMS() map[string]float64 {
	out := map[string]float64{}
	for name, d := range t.selfTimes() {
		out[name] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// childCover reports, over every span called name, the ratio of the
// time its direct children cover to its own duration. Close to 1 means
// the children account for the whole interval.
func (t *tracer) childCover(name string) float64 {
	covered := t.covered()
	var whole, parts int64
	for _, s := range t.spans {
		if s.Name == name {
			whole += s.End - s.Start
			parts += covered[s.ID]
		}
	}
	if whole == 0 {
		return 0
	}
	return float64(parts) / float64(whole)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
