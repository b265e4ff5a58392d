package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 at the root
	start, end time.Duration
}

// tracer keeps spans in memory for a traced run. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// medianMs is the median duration of the spans called name, in ms; 0
// when there are none.
func (t *tracer) medianMs(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.name == name {
			ds = append(ds, float64(s.end-s.start)/1e6)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Float64s(ds)
	return ds[len(ds)/2]
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// pardbench -trace also writes (load it at ui.perfetto.dev).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ms"}
	for i, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": t.workload},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(&doc); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
