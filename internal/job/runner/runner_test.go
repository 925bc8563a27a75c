package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/kernels"
	"repro/internal/telemetry"
	"repro/internal/workload"
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

// TestSmallSizesNeverPanic: every named workload at sizes 1 to 8
// either runs or returns an error naming the size, never a panic the job
// service has to catch (cg used to panic building a system too small
// for its outer diagonals).
func TestSmallSizesNeverPanic(t *testing.T) {
	svc := job.NewService(Run, 1, 1)
	for _, name := range kernels.Names() {
		for size := 1; size <= 8; size++ {
			_, _, err := svc.Do(job.Spec{Workload: name, Clusters: 1, Size: size})
			var perr *job.PanicError
			if errors.As(err, &perr) {
				t.Errorf("%s size %d panicked: %v", name, size, err)
			} else if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("n=%d ", size)) {
				t.Errorf("%s size %d: error %q does not name the size", name, size, err)
			}
		}
	}
}

// oversizedSpecs holds, for every named workload, a problem whose
// global-memory footprint is far beyond the 8 Mword default: rk's n² +
// 128n words at n = 65536 are 32 GiB, and the others' few words per
// element at n = 2^40 are terabytes.
var oversizedSpecs = map[string]job.Spec{
	"rk":   {Workload: "rk", Clusters: 1, Size: 65536},
	"vl":   {Workload: "vl", Clusters: 1, Size: 1 << 40},
	"tm":   {Workload: "tm", Clusters: 1, Size: 1 << 40},
	"cg":   {Workload: "cg", Clusters: 1, Size: 1 << 40},
	"bdna": {Workload: "bdna", Clusters: 1, Size: 1 << 40},
	"mg3d": {Workload: "mg3d", Clusters: 1, Size: 1 << 40},
}

// TestOversizedProblemsRefused: a problem that cannot fit in global
// memory is refused with core.ErrGlobalFull before its workload
// allocates anything sized by it, so one request cannot exhaust a job
// server's host memory (an allocation the host cannot back kills the
// process; it is not a panic the job service can catch).
func TestOversizedProblemsRefused(t *testing.T) {
	svc := job.NewService(Run, 1, 1)
	for _, name := range kernels.Names() {
		spec, ok := oversizedSpecs[name]
		if !ok {
			t.Errorf("workload %q has no oversized spec, so nothing checks that it bounds its problem", name)
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := svc.Do(spec)
		runtime.ReadMemStats(&after)
		var perr *job.PanicError
		if errors.As(err, &perr) || !errors.Is(err, core.ErrGlobalFull) {
			t.Errorf("%s size %d: got %v, want an error wrapping core.ErrGlobalFull", name, spec.Size, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
			t.Errorf("%s size %d: allocated %d MB before refusing, want under 16", name, spec.Size, grew>>20)
		}
	}
}

// referenceFingerprint is the registry fingerprint as first written: a
// Sprintf per architected metric, sorted as whole lines and joined.
// Registry.Fingerprint must render exactly these bytes; the benchmark's
// goldens and every cached result hash them.
func referenceFingerprint(reg *telemetry.Registry) string {
	var lines []string
	values := reg.Snapshot()
	for i, path := range reg.Paths() {
		if kind, _ := reg.KindOf(path); kind == telemetry.Diagnostic {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s %d", path, values[i]))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestFingerprintMatchesReference runs every named workload on 1 and
// 4 clusters, fault-free and at fault_rate 1, and requires the result's
// registry fingerprint to equal the reference rendering byte for byte.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, name := range kernels.Names() {
		spec, ok := smallSpecs[name]
		if !ok {
			t.Errorf("workload %q has no small spec", name)
			continue
		}
		for _, clusters := range []int{1, 4} {
			for _, rate := range []float64{0, 1} {
				s := spec
				s.Clusters, s.FaultRate, s.FaultSeed = clusters, rate, concurrentFaultSeed
				if s.Workload == "cg" && clusters == 4 {
					s.Size = 0 // 512 is not a multiple of 32 CEs' strips
				}
				j, err := Prepare(s)
				if err != nil {
					t.Fatalf("%s clusters=%d: %v", label(s), clusters, err)
				}
				res, err := j.Execute(workload.Attachments{})
				if err != nil {
					t.Fatalf("%s clusters=%d: %v", label(s), clusters, err)
				}
				if want := referenceFingerprint(j.Machine.Registry()); res.RegistryFingerprint != want {
					t.Errorf("%s clusters=%d: fingerprint differs from the reference rendering", label(s), clusters)
				}
			}
		}
	}
}
