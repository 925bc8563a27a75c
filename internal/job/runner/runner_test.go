package runner

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/job"
)

// TestRunDeterministicAcrossEngines: one Spec means one simulation —
// every engine path yields the same cycles, checksum and registry
// fingerprint, so fingerprint-keyed caching is sound no matter which
// path a cedard instance happens to run.
func TestRunDeterministicAcrossEngines(t *testing.T) {
	var ref job.Result
	for i, eng := range job.EngineNames {
		res, err := Run(job.Spec{Workload: "vl", Clusters: 1, Size: 2048, Engine: eng})
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if res.RegistryFingerprint == "" {
			t.Fatalf("engine %s: empty registry fingerprint", eng)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Cycles != ref.Cycles || res.Check != ref.Check {
			t.Fatalf("engine %s diverged: %d cycles / %g vs %d / %g",
				eng, res.Cycles, res.Check, ref.Cycles, ref.Check)
		}
		if res.RegistryFingerprint != ref.RegistryFingerprint {
			t.Fatalf("engine %s: registry fingerprint diverged from %s", eng, job.EngineNames[0])
		}
	}
}

// TestPrepareRejects: spec-level failures — including an unknown
// workload name, which only the runner can check against the registry —
// surface as *ValidationError before any machine is built.
func TestPrepareRejects(t *testing.T) {
	cases := []struct {
		spec  job.Spec
		field string
	}{
		{job.Spec{Workload: "linpack"}, "workload"},
		{job.Spec{Workload: "rk", Size: -1}, "size"},
		{job.Spec{Workload: "rk", Engine: "warp"}, "engine"},
	}
	for _, tc := range cases {
		_, err := Prepare(tc.spec)
		var verr *job.ValidationError
		if !errors.As(err, &verr) || verr.Field != tc.field {
			t.Fatalf("Prepare(%+v) = %v, want ValidationError on %q", tc.spec, err, tc.field)
		}
	}
}

// TestRunFaulted: a faulted run carries its census and summary table in
// the result, and the injected counts are reproducible from the seed.
func TestRunFaulted(t *testing.T) {
	spec := job.Spec{Workload: "tm", Clusters: 1, Size: 16384,
		Prefetch: job.Bool(false), FaultRate: 1, FaultSeed: 7}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultCensus == nil {
		t.Fatal("faulted run returned no census")
	}
	var total int64
	for _, n := range res.FaultCensus {
		total += n
	}
	if total == 0 {
		t.Fatal("fault census is all zeros at rate 1")
	}
	found := false
	for _, tbl := range res.Tables {
		if strings.Contains(tbl, "Injected faults") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no fault summary table in result tables (%d tables)", len(res.Tables))
	}
	again, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.RegistryFingerprint != res.RegistryFingerprint {
		t.Fatal("identical faulted specs produced different registry fingerprints")
	}
}

// TestRunScaledTopology: the scaled topology builds beyond cedar's
// 4-cluster bound and reports the larger CE count.
func TestRunScaledTopology(t *testing.T) {
	res, err := Run(job.Spec{Workload: "vl", Topology: "scaled", Clusters: 8, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.CEs != 64 {
		t.Fatalf("8-cluster scaled machine reports %d CEs, want 64", res.CEs)
	}
}

// TestRunRejectsBadRankSize: a rank-64 size that is not a multiple of
// the strip length is an error naming it, as for the other kernels, not
// a panic the job service has to catch.
func TestRunRejectsBadRankSize(t *testing.T) {
	svc := job.NewService(Run, 1, 1)
	_, _, err := svc.Do(job.Spec{Workload: "rk", Clusters: 1, Size: 33})
	var perr *job.PanicError
	if errors.As(err, &perr) {
		t.Fatalf("rk n=33 panicked: %v", err)
	}
	const want = "kernels: rank-64 n=33 not a multiple of 32"
	if err == nil || err.Error() != want {
		t.Fatalf("rk n=33: got %v, want %q", err, want)
	}
}
