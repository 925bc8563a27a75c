package runner

import (
	"fmt"
	"testing"

	"repro/internal/job"
	"repro/internal/workload"
)

// BenchmarkPrepare reports what building a default machine costs a job:
// spec normalization plus core.New, at 1 and 4 clusters.
func BenchmarkPrepare(b *testing.B) {
	for _, clusters := range []int{1, 4} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
			spec := job.Spec{Workload: "vl", Clusters: clusters}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Prepare(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecute reports what running a short job costs once its
// machine is built: the simulation, the result tables and the registry
// build and fingerprint. Prepare runs outside the timer.
func BenchmarkExecute(b *testing.B) {
	for _, spec := range []job.Spec{
		{Workload: "vl", Clusters: 1, Size: 256},
		{Workload: "vl", Clusters: 4, Size: 1024},
	} {
		b.Run(fmt.Sprintf("%s/clusters=%d/n=%d", spec.Workload, spec.Clusters, spec.Size), func(b *testing.B) {
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
