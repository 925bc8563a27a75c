package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// traceEvent is one entry of the Chrome trace_event array. Timestamps
// and durations are pre-rendered exact-decimal microseconds carried as
// raw JSON numbers, so the emitted bytes are identical across runs and
// platforms (no float formatting involved).
type traceEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   json.RawMessage `json:"ts,omitempty"`
	Dur  json.RawMessage `json:"dur,omitempty"`
	S    string          `json:"s,omitempty"`
	Args map[string]any  `json:"args,omitempty"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// usec renders a cycle count as exact-decimal microseconds: one cycle is
// sim.CycleTime = 170 ns = 0.17 us, so the value is (c*17)/100 with two
// fixed fraction digits. Emitting the decimal ourselves keeps the trace
// byte-deterministic.
func usec(c sim.Cycle) json.RawMessage {
	n := int64(c) * 17
	return json.RawMessage(fmt.Sprintf("%d.%02d", n/100, n%100))
}

// coord locates a metric's timeline row.
type coord struct {
	pid, tid int
	name     string // metric name within the row
}

// traceLayout assigns stable pid/tid coordinates to processes (first
// path segment) and threads (second segment) in first-appearance
// registration order, accumulating the metadata events that name them.
type traceLayout struct {
	pids map[string]int
	tids map[[2]string]int
	next map[string]int // per-process next tid
	meta []traceEvent
}

func newTraceLayout() *traceLayout {
	return &traceLayout{
		pids: map[string]int{},
		tids: map[[2]string]int{},
		next: map[string]int{},
	}
}

// place returns (creating on first sight) the coordinates of the thread
// for process/thread names.
func (l *traceLayout) place(process, thread string) (pid, tid int) {
	pid, ok := l.pids[process]
	if !ok {
		pid = len(l.pids) + 1
		l.pids[process] = pid
		l.meta = append(l.meta, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": process},
		})
	}
	tk := [2]string{process, thread}
	tid, ok = l.tids[tk]
	if !ok {
		l.next[process]++
		tid = l.next[process]
		l.tids[tk] = tid
		l.meta = append(l.meta, traceEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": thread},
		})
	}
	return pid, tid
}

// WriteTrace renders the sampler's recorded series as Chrome trace_event
// JSON loadable in Perfetto or chrome://tracing.
//
// Layout: each top-level path segment becomes a trace process (cluster0,
// net, gmem, engine, ...) and each second segment a thread within it
// (ce3, pfu0, fwd, mod7, ...), so every registered component owns one
// timeline row. Per sampling interval each row gets one complete ("X")
// slice whose args carry the row's non-zero counter deltas; gauges
// additionally emit counter-track ("C") events at every sample, as do
// the cycle-accounting "attr/" counters (carrying per-interval deltas,
// so each CE row reads as a stacked CPI chart); and phase boundaries
// appear as global instants on a synthetic workload/phases row.
func WriteTrace(w io.Writer, s *Sampler) error {
	reg := s.Registry()
	paths := reg.Paths()
	layout := newTraceLayout()

	coords := make([]coord, len(paths))
	kinds := make([]Kind, len(paths))
	for i, p := range paths {
		process, thread, name := splitPath(p)
		pid, tid := layout.place(process, thread)
		coords[i] = coord{pid: pid, tid: tid, name: name}
		kinds[i], _ = reg.KindOf(p)
	}

	// Threads appear in registration order; the synthetic row comes
	// after every registered component.
	phasePid, phaseTid := layout.place("workload", "phases")

	var evs []traceEvent
	evs = append(evs, layout.meta...)

	// One slice per component row per interval, carrying that row's
	// non-zero counter deltas. The slice name is the thread's, so rows
	// read as a run of same-named activity spans in Perfetto.
	type rowKey struct{ pid, tid int }
	samples := s.Samples()
	var snaps []Sample // full snapshots only; label-only marks carry no values
	for _, smp := range samples {
		if smp.Values != nil {
			snaps = append(snaps, smp)
		}
	}
	for i := 1; i < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		if cur.Cycle <= prev.Cycle {
			continue
		}
		rowArgs := map[rowKey]map[string]any{}
		var rowOrder []rowKey
		rowName := map[rowKey]string{}
		for j := range paths {
			if kinds[j] != Counter {
				continue
			}
			d := cur.Values[j] - prev.Values[j]
			if d == 0 {
				continue
			}
			k := rowKey{coords[j].pid, coords[j].tid}
			if rowArgs[k] == nil {
				rowArgs[k] = map[string]any{}
				rowOrder = append(rowOrder, k)
				_, thread, _ := splitPath(paths[j])
				rowName[k] = thread
			}
			rowArgs[k][coords[j].name] = d
		}
		for _, k := range rowOrder {
			evs = append(evs, traceEvent{
				Name: rowName[k], Ph: "X", Pid: k.pid, Tid: k.tid,
				Ts: usec(prev.Cycle), Dur: usec(cur.Cycle - prev.Cycle),
				Args: rowArgs[k],
			})
		}
	}

	// Gauge levels as counter-track events at every full snapshot.
	for _, smp := range snaps {
		for j := range paths {
			if kinds[j] != Gauge {
				continue
			}
			evs = append(evs, traceEvent{
				Name: coords[j].name, Ph: "C", Pid: coords[j].pid, Tid: coords[j].tid,
				Ts:   usec(smp.Cycle),
				Args: map[string]any{"value": smp.Values[j]},
			})
		}
	}

	// Cycle-accounting buckets ("attr/..." counters, DESIGN.md §4.8) as
	// per-interval-rate counter tracks: each snapshot's event carries the
	// bucket's delta over the interval that ends there (0 at the first),
	// so every CE row gets a stacked CPI view alongside its slices.
	for i, smp := range snaps {
		for j := range paths {
			if kinds[j] != Counter || !strings.HasPrefix(coords[j].name, "attr/") {
				continue
			}
			var d int64
			if i > 0 {
				d = smp.Values[j] - snaps[i-1].Values[j]
			}
			evs = append(evs, traceEvent{
				Name: coords[j].name, Ph: "C", Pid: coords[j].pid, Tid: coords[j].tid,
				Ts:   usec(smp.Cycle),
				Args: map[string]any{"value": d},
			})
		}
	}

	// Phase boundaries as global instants.
	for _, smp := range samples {
		if smp.Label == "" {
			continue
		}
		evs = append(evs, traceEvent{
			Name: smp.Label, Ph: "i", Pid: phasePid, Tid: phaseTid,
			Ts: usec(smp.Cycle), S: "g",
		})
	}

	out, err := json.MarshalIndent(traceFile{DisplayTimeUnit: "ns", TraceEvents: evs}, "", " ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}
