package kernels

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestFourClusterFullSizeTelemetryEquivalence is the full-size
// configuration sweep the quick determinism tests shrink away from: all
// four clusters, the as-built global memory, both engine paths, with
// telemetry attached and the trace exporter run on the result. It is
// the long pole of the suite, so `go test -short` skips it.
func TestFourClusterFullSizeTelemetryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size 4-cluster equivalence run; skipped with -short")
	}
	run := func(mode sim.EngineMode) (*core.Machine, job.Result, []byte) {
		t.Helper()
		cfg := core.ConfigClusters(4) // as-built: default global memory, no shrinking
		cfg.EngineMode = mode
		m := core.MustNew(cfg)
		s := m.NewSampler(1000)
		r, err := runTriMatVec(m, workload.Params{Size: m.NumCEs() * StripLen * 2, Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		s.Final()
		var buf bytes.Buffer
		if err := telemetry.WriteTrace(&buf, s); err != nil {
			t.Fatal(err)
		}
		return m, r, buf.Bytes()
	}
	naive, rn, tn := run(sim.ModeNaive)
	fast, rf, traceBytes := run(sim.ModeWakeCached)
	const what = "4-cluster"
	checkResults(t, what, rf, rn)
	diffFingerprints(t, what+" fingerprint", fingerprint(fast), fingerprint(naive))
	diffFingerprints(t, what+" registry", fast.Registry().Fingerprint(), naive.Registry().Fingerprint())

	// The exported traces carry only architected series (diagnostics
	// never become slices or tracks), so both engine paths must emit
	// byte-identical trace files.
	if !bytes.Equal(traceBytes, tn) {
		t.Fatalf("%s emitted different trace bytes than naive (%d vs %d)", what, len(traceBytes), len(tn))
	}

	// Acceptance: the timeline covers every cluster (a process per
	// cluster plus net, gmem and the synthetic workload row).
	processes := map[string]bool{}
	for _, e := range decodeTrace(t, traceBytes) {
		if e.Name == "process_name" {
			processes[e.Args["name"].(string)] = true
		}
	}
	for cl := 0; cl < 4; cl++ {
		if !processes[fmt.Sprintf("cluster%d", cl)] {
			t.Fatalf("trace missing cluster%d process (have %v)", cl, processes)
		}
	}
	for _, p := range []string{"net", "gmem", "workload"} {
		if !processes[p] {
			t.Fatalf("trace missing %q process (have %v)", p, processes)
		}
	}
}
