package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// traceRig drives a small deterministic scenario through the sampler and
// returns the exporter's bytes: one busy-then-idle worker, a derived
// pfu-style counter, a gauge, a diagnostic and one mid-cycle phase mark.
func traceRig(t *testing.T) []byte {
	t.Helper()
	eng := sim.New()
	w := &worker{until: 25}
	eng.Register("worker", w)

	reg := NewRegistry()
	reg.Counter("cluster0/ce0/ops", &w.Ops)
	reg.Counter("cluster0/ce0/idle_cycles", &w.Idle)
	// A cycle-accounting bucket: "attr/" counters get per-interval-rate
	// counter tracks in addition to the slice args.
	reg.Counter("cluster0/ce0/attr/busy", &w.Ops)
	reg.CounterFunc("cluster0/pfu0/issued", func() int64 { return w.Ops / 2 })
	reg.Gauge("net/fwd/in_flight", func() int64 { return w.Ops % 3 })
	var skipped int64
	reg.Diagnostic("engine/skipped_ticks", &skipped)

	s := NewSampler(reg, 10)
	s.Attach(eng)

	// A component that marks a phase boundary from inside its own tick,
	// exercising the mid-cycle label-only path of the exporter.
	eng.Register("phase-marker", sim.ComponentFunc(func(now sim.Cycle) {
		if now == 15 {
			s.Phase("barrier:start")
		}
	}))

	eng.Run(40)
	s.Final()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteTraceGolden(t *testing.T) {
	got := traceRig(t)
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -run TestWriteTraceGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace output drifted from golden file %s (re-run with -update if intended)\ngot %d bytes, want %d", golden, len(got), len(want))
	}
}

func TestWriteTraceDeterministic(t *testing.T) {
	a := traceRig(t)
	b := traceRig(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different trace bytes")
	}
}

func TestWriteTraceStructure(t *testing.T) {
	raw := traceRig(t)
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   json.RawMessage `json:"ts"`
			Args map[string]any  `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// Exactly one thread_name metadata row per registered component
	// (cluster0/ce0, cluster0/pfu0, net/fwd, engine) plus the synthetic
	// workload/phases row.
	threads := map[[2]int]string{}
	processes := map[int]string{}
	for _, e := range tf.TraceEvents {
		switch e.Name {
		case "thread_name":
			k := [2]int{e.Pid, e.Tid}
			if prev, dup := threads[k]; dup {
				t.Fatalf("duplicate thread_name for pid=%d tid=%d (%q and %q)", e.Pid, e.Tid, prev, e.Args["name"])
			}
			threads[k] = e.Args["name"].(string)
		case "process_name":
			processes[e.Pid] = e.Args["name"].(string)
		}
	}
	if len(threads) != 5 {
		t.Fatalf("got %d timeline rows %v, want 5", len(threads), threads)
	}
	for _, p := range []string{"cluster0", "net", "engine", "workload"} {
		found := false
		for _, name := range processes {
			if name == p {
				found = true
			}
		}
		if !found {
			t.Fatalf("process %q missing from trace metadata (have %v)", p, processes)
		}
	}

	// The phase mark appears as an instant; slices, gauge tracks and
	// attribution tracks exist; a diagnostic never becomes a slice or
	// track.
	var sawMark, sawSlice, sawGauge, sawAttr bool
	var attrFirst *int64
	for _, e := range tf.TraceEvents {
		switch {
		case e.Ph == "i" && e.Name == "barrier:start":
			sawMark = true
			if string(e.Ts) != "2.55" { // cycle 15 at 170 ns = 2.55 us, exact decimal
				t.Fatalf("phase mark ts = %s, want 2.55", e.Ts)
			}
		case e.Ph == "X":
			sawSlice = true
			if _, leak := e.Args["skipped_ticks"]; leak {
				t.Fatal("diagnostic leaked into a slice's args")
			}
		case e.Ph == "C" && e.Name == "attr/busy":
			sawAttr = true
			if attrFirst == nil {
				v := int64(e.Args["value"].(float64))
				attrFirst = &v
			}
		case e.Ph == "C":
			sawGauge = true
			if e.Name != "in_flight" {
				t.Fatalf("unexpected counter track %q", e.Name)
			}
		}
	}
	if !sawMark || !sawSlice || !sawGauge || !sawAttr {
		t.Fatalf("missing event kinds: mark=%v slice=%v gauge=%v attr=%v",
			sawMark, sawSlice, sawGauge, sawAttr)
	}
	// Attribution tracks carry per-interval deltas: the first snapshot
	// has no preceding interval, so its value must be 0.
	if attrFirst == nil || *attrFirst != 0 {
		t.Fatalf("first attr/busy track value = %v, want 0", attrFirst)
	}
}
