package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, as a Chrome trace_event
// complete event. Spans of one job or request share ID; Parent names
// the span that caused this one.
type span struct {
	Name  string  `json:"name"`
	Layer string  `json:"cat"`
	Ph    string  `json:"ph"`
	TsUs  float64 `json:"ts"`
	DurUs float64 `json:"dur"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	Args  spanArg `json:"args"`
}

type spanArg struct {
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Label  string `json:"label,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pass nil.
type tracer struct {
	epoch time.Time
	pid   int
	spans []span
}

func newTracer(pid int) *tracer { return &tracer{epoch: time.Now(), pid: pid} }

// add records [start, end) on thread tid.
func (t *tracer) add(name, layer string, tid int, arg spanArg, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Ph: "X", Pid: t.pid, Tid: tid, Args: arg,
		TsUs:  float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		DurUs: float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
}

// Process ids in the trace file.
const (
	pidChild  = 1 // a job workload's child process
	pidClient = 2 // the cedard load generator
)

// writeTrace writes spans as a trace_event JSON file Perfetto and
// chrome://tracing load, with host metadata alongside.
func writeTrace(path string, host hostInfo, spans []span) error {
	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Args map[string]string `json:"args"`
	}
	events := []any{
		meta{"process_name", "M", pidChild, map[string]string{"name": "bench child (job workloads)"}},
		meta{"process_name", "M", pidClient, map[string]string{"name": "bench client (cedard)"}},
	}
	for _, s := range spans {
		events = append(events, s)
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       host,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
