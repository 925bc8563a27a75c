package kernels

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The telemetry layer rides on the engine's quiescence contract: a
// sampled run must record exactly the same architected series whichever
// engine path executes it, and attaching a sampler must not change the
// simulation at all. These tests extend the determinism suite to the
// registry, the sampler and the trace exporter.

func TestTelemetryFingerprintEngineEquivalence(t *testing.T) {
	run := func(m *core.Machine) (Result, *telemetry.Sampler) {
		t.Helper()
		s := m.NewSampler(500)
		r, err := RunVectorLoad(m, Params{Size: m.NumCEs() * StripLen * 4, Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		s.Final()
		return r, s
	}
	naive := machineAt(1, sim.ModeNaive)
	rn, sn := run(naive)
	fast := machineAt(1, sim.ModeWakeCached)
	rf, sf := run(fast)

	const what = "VL telemetry"
	checkResults(t, what, rf, rn)
	diffFingerprints(t, what+" registry", fast.Registry().Fingerprint(), naive.Registry().Fingerprint())
	diffFingerprints(t, what+" sampler series", sf.Fingerprint(), sn.Fingerprint())

	// The engine diagnostics are exactly what must differ: the fast path
	// skipped work, the naive path never does. The registry exposes them,
	// fenced off from the fingerprints just compared.
	skF, ok := fast.Registry().Value("engine/skipped_ticks")
	if !ok || skF == 0 {
		t.Fatalf("wake-cached engine/skipped_ticks = %d,%v, want > 0", skF, ok)
	}
	if ds, _ := fast.Registry().Value("engine/dormant_skips"); ds == 0 {
		t.Fatal("wake-cached engine/dormant_skips = 0, want > 0")
	}
	// Network level gauges are registered and idle after a drained run.
	for _, path := range []string{"net/fwd/in_flight", "net/rev/in_flight"} {
		v, ok := fast.Registry().Value(path)
		if !ok {
			t.Fatalf("%s not registered", path)
		}
		if v != 0 {
			t.Fatalf("%s = %d after drained run, want 0", path, v)
		}
	}
	if skN, _ := naive.Registry().Value("engine/skipped_ticks"); skN != 0 {
		t.Fatalf("naive engine/skipped_ticks = %d, want 0", skN)
	}
}

// TestSamplerDoesNotPerturbRun: a kernel must take exactly the same
// number of cycles and produce the same counters with and without a
// sampler attached (telemetry-on determinism, the acceptance gate).
func TestSamplerDoesNotPerturbRun(t *testing.T) {
	mk := func() *core.Machine {
		cfg := core.ConfigClusters(1)
		cfg.Global.Words = 1 << 20
		return core.MustNew(cfg)
	}
	plain, sampled := mk(), mk()
	s := sampled.NewSampler(250)
	rp, err := RunRank64(plain, NewRank64Input(64), Params{Mode: GMCache})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunRank64(sampled, NewRank64Input(64), Params{Mode: GMCache})
	if err != nil {
		t.Fatal(err)
	}
	s.Final()
	checkResults(t, "rank64 sampled", rp, rs)
	diffFingerprints(t, "sampled vs plain", fingerprint(plain), fingerprint(sampled))
	if len(s.Samples()) < 2 {
		t.Fatalf("sampler recorded %d samples, want >= 2", len(s.Samples()))
	}
}

// TestXDOALLPhaseMarks: a machine-wide DOALL reports its start and end
// to the sampler, bracketing the dispatch startup and the body.
func TestXDOALLPhaseMarks(t *testing.T) {
	fast, _ := enginePair(1)
	s := fast.NewSampler(0) // phase marks only
	rt := cedarfort.New(fast, cedarfort.DefaultConfig())
	rt.Phases = s
	for l := 0; l < 2; l++ {
		if _, err := rt.XDOALL(fast.NumCEs(), cedarfort.SelfScheduled, func(ctx *cedarfort.Ctx, iter int) {
			ctx.Emit(isa.NewCompute(100))
		}); err != nil {
			t.Fatal(err)
		}
	}
	var labels []string
	for _, smp := range s.Samples() {
		labels = append(labels, smp.Label)
		if smp.Values == nil {
			t.Fatalf("DOALL mark %q recorded mid-cycle; XDOALL boundaries happen on an idle machine", smp.Label)
		}
	}
	want := []string{"xdoall:start", "xdoall:end", "xdoall:start", "xdoall:end"}
	if len(labels) != len(want) {
		t.Fatalf("marks = %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("marks = %v, want %v", labels, want)
		}
	}
}

// TestCGPhaseMarks: the barrier-structured CG kernel reports barrier
// entry and exit to the sampler, and both engine paths see the same
// marks at the same cycles.
func TestCGPhaseMarks(t *testing.T) {
	run := func(m *core.Machine) (*telemetry.Sampler, CGResult) {
		t.Helper()
		s := m.NewSampler(1000)
		rt := cedarfort.New(m, cedarfort.DefaultConfig())
		rt.Phases = s
		res, err := RunCG(m, rt, NewCGProblem(m.NumCEs()*StripLen*2, 5), Params{Iterations: 3, Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		s.Final()
		return s, res
	}
	fast, naive := enginePair(2)
	sf, rf := run(fast)
	sn, rn := run(naive)
	checkResults(t, "CG phases", rf.Result, rn.Result)
	diffFingerprints(t, "CG sampler series", sf.Fingerprint(), sn.Fingerprint())

	counts := map[string]int{}
	for _, smp := range sf.Samples() {
		if smp.Label != "" {
			counts[smp.Label]++
		}
	}
	for _, label := range []string{"barrier:start", "barrier:end"} {
		if counts[label] == 0 {
			t.Fatalf("no %q phase mark recorded (have %v)", label, counts)
		}
	}
	if counts["barrier:start"] != counts["barrier:end"] {
		t.Fatalf("unbalanced barrier marks: %v", counts)
	}
}

// TestMachineFlameShape: the flame summary has one row per CE plus the
// two networks and the global memory, with as many cells as intervals.
func TestMachineFlameShape(t *testing.T) {
	fast, _ := enginePair(1)
	s := fast.NewSampler(500)
	if _, err := RunVectorLoad(fast, Params{Size: fast.NumCEs() * StripLen * 2, Prefetch: true}); err != nil {
		t.Fatal(err)
	}
	s.Final()
	f := fast.MachineFlame(s)
	if want := fast.NumCEs() + 3; f.Rows() != want {
		t.Fatalf("flame rows = %d, want %d (CEs + fwd + rev + gmem)", f.Rows(), want)
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("flame rendered empty")
	}
}

// traceEvent is the subset of a trace_event entry the structural tests
// inspect.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// decodeTrace unmarshals exported trace bytes for structural checks.
func decodeTrace(t *testing.T, raw []byte) []traceEvent {
	t.Helper()
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return tf.TraceEvents
}
