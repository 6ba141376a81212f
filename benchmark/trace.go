package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share its number; parent is the id of the span that caused
// this one (0 for a root). Start and end are nanoseconds since the
// recorder was made.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent,omitempty"`
	Request int64  `json:"request"`
}

// maxSpans bounds the trace kept in memory and written at exit; the
// medians need far fewer.
const maxSpans = 200_000

// recorder keeps spans in memory. A nil *recorder records nothing, so
// the same request code runs traced and untraced and the difference
// between the two passes is the cost of tracing itself. It is used from
// one goroutine: the traced pass has one caller.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, parent int, request int64) int {
	if r == nil || len(r.spans) >= maxSpans {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Parent: parent, Request: request,
		Start: int64(time.Since(r.origin))})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = int64(time.Since(r.origin))
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTime is the median duration and median self time of one span
// name. Self time is the span minus the part of it its children cover.
type layerTime struct {
	n          int
	total, own time.Duration
}

func (r *recorder) layers() map[string]layerTime {
	childTime := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		childTime[s.Parent] += s.End - s.Start
	}
	totals := map[string][]time.Duration{}
	owns := map[string][]time.Duration{}
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		d := s.End - s.Start
		totals[s.Name] = append(totals[s.Name], time.Duration(d))
		owns[s.Name] = append(owns[s.Name], time.Duration(d-childTime[s.ID]))
	}
	out := map[string]layerTime{}
	for name, ds := range totals {
		out[name] = layerTime{n: len(ds), total: medianDuration(ds), own: medianDuration(owns[name])}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
