package runner

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/job"
	"repro/internal/kernels"
)

// smallSpecs holds one spec per named workload, sized so that dozens
// of runs finish in seconds under the race detector. rk at size 64
// alone takes seconds there, so it runs at 32.
var smallSpecs = map[string]job.Spec{
	"rk":   {Workload: "rk", Clusters: 1, Size: 32},
	"vl":   {Workload: "vl", Clusters: 1, Size: 1024},
	"tm":   {Workload: "tm", Clusters: 1, Size: 1024},
	"cg":   {Workload: "cg", Clusters: 1, Size: 512, Iterations: 2},
	"bdna": {Workload: "bdna", Clusters: 1, Iterations: 1},
	"mg3d": {Workload: "mg3d", Clusters: 1, Iterations: 1},
}

// scaledSpec runs on the scaled topology, several machines of which the
// ppt5 exhibit runs at once.
var scaledSpec = job.Spec{Workload: "vl", Topology: "scaled", Clusters: 8, Size: 4096}

// concurrentFaultSeed is a fault schedule that injects at least one fault
// into every small spec at fault_rate 1; most seeds miss the shorter runs.
const concurrentFaultSeed = 30

// TestConcurrentMachines runs every named workload, and one spec on
// the scaled topology, on several machines at once, as cedard and the
// exhibits do, and checks each result against a sequential run of the
// same spec. A kernel that keeps state at package level shares it
// between machines: under -race that is a reported data race, and
// without it the results can diverge from the sequential ones.
func TestConcurrentMachines(t *testing.T) {
	var specs []job.Spec
	for _, name := range kernels.Names() {
		spec, ok := smallSpecs[name]
		if !ok {
			t.Errorf("workload %q has no small spec, so no test runs it on concurrent machines", name)
			continue
		}
		faulted := spec
		faulted.FaultRate, faulted.FaultSeed = 1, concurrentFaultSeed
		specs = append(specs, spec, faulted)
	}
	if t.Failed() {
		return
	}
	specs = append(specs, scaledSpec)
	want := make([]job.Result, len(specs))
	for i, spec := range specs {
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", label(spec), err)
		}
		if spec.FaultRate > 0 && injected(res) == 0 {
			t.Errorf("%s: no fault injected, so no recovery path runs concurrently", label(spec))
		}
		want[i] = res
	}

	const copies = 4
	var wg sync.WaitGroup
	for c := 0; c < copies; c++ {
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(spec)
				if err != nil {
					t.Errorf("%s, copy %d: %v", label(spec), c, err)
					return
				}
				if !reflect.DeepEqual(res, want[i]) {
					t.Errorf("%s, copy %d: concurrent result differs from the sequential run", label(spec), c)
				}
			}()
		}
	}
	wg.Wait()
}

func label(spec job.Spec) string {
	b, _ := json.Marshal(spec)
	return string(b)
}

// injected counts the faults a run's census says landed on a target.
func injected(res job.Result) int64 {
	var n int64
	for kind, c := range res.FaultCensus {
		if kind != "no-target" && kind != "repairs" {
			n += c
		}
	}
	return n
}
