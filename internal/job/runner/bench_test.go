package runner

import (
	"fmt"
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

// ledgerSpecs are the job shapes the Prepare and Execute rows measure:
// vl at 1 and 4 clusters, the short-sweep shapes (tm, mg3d and a
// one-cluster cg) and net-bound's 10-iteration cg.
var ledgerSpecs = []job.Spec{
	{Workload: "vl", Clusters: 1, Size: 256},
	{Workload: "vl", Clusters: 4, Size: 1024},
	{Workload: "tm", Clusters: 4, Size: 2048},
	{Workload: "mg3d", Clusters: 4, Iterations: 2},
	{Workload: "cg", Clusters: 1, Iterations: 5},
	{Workload: "cg", Clusters: 4, Iterations: 10},
}

func ledgerName(s job.Spec) string {
	name := fmt.Sprintf("%s/clusters=%d", s.Workload, s.Clusters)
	if s.Size > 0 {
		name += fmt.Sprintf("/n=%d", s.Size)
	}
	if s.Iterations > 0 {
		name += fmt.Sprintf("/iters=%d", s.Iterations)
	}
	return name
}

// BenchmarkPrepare reports what building a default machine costs a job:
// spec normalization plus core.New.
func BenchmarkPrepare(b *testing.B) {
	for _, spec := range ledgerSpecs {
		b.Run(ledgerName(spec), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Prepare(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecute reports what running a job costs once its machine is
// built: the simulation, the result tables and the registry build and
// fingerprint. Prepare runs outside the timer.
func BenchmarkExecute(b *testing.B) {
	for _, spec := range ledgerSpecs {
		b.Run(ledgerName(spec), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				j, err := Prepare(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := j.Execute(workload.Attachments{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFingerprint reports the cost of a finished 4-cluster
// machine's registry fingerprint, the determinism witness every result
// carries.
func BenchmarkFingerprint(b *testing.B) {
	j, err := Prepare(job.Spec{Workload: "vl", Clusters: 4, Size: 1024})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := j.Execute(workload.Attachments{}); err != nil {
		b.Fatal(err)
	}
	reg := j.Machine.Registry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprint = reg.Fingerprint()
	}
}

var fingerprint string
