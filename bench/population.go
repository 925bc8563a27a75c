package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/job"
)

// A workload is one traffic mix the benchmark drives. Job workloads run
// a drawn job list in-process through job/runner; cedard-sweeps sends
// batches to a real cedard server.
type workloadDef struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same line).
	why string
	// population is the fixed set of specs every job list is drawn
	// from; goldens cover each of them, so every seed is checkable.
	population []job.Spec
	// jobs is the fixed job-list length N of a job workload: the list
	// weights per-spec medians into jobs_per_s and the latency
	// percentiles. Zero for cedard-sweeps, whose load is open-loop.
	jobs int
}

func (w *workloadDef) isCedard() bool { return w.jobs == 0 }

const cedardWorkload = "cedard-sweeps"

var workloads = []*workloadDef{
	{
		name:       "short-sweep",
		why:        "short distinct specs: machine construction is a third of host time, so core.New and registry costs show",
		population: shortPopulation(),
		jobs:       57 * 21,
	},
	{
		name:       "net-bound",
		why:        "Table 1 GM points: omega-network and PFU ticks dominate host time, Prepare is under 3%",
		population: netPopulation(),
		jobs:       32,
	},
	{
		name:       "local-quiet",
		why:        "I/O parks, cache-mode rk and long mg3d: engine jumps, cache, CE and IP work with sparse network traffic",
		population: quietPopulation(),
		jobs:       80,
	},
	{
		name:       cedardWorkload,
		why:        "open-loop Zipf batches to cedard: cold misses beside warm hits through HTTP, JSON and the result cache",
		population: cedardPopulation(),
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// shortPopulation: vl and tm at size 256·clusters·k (k=1..4), mg3d at
// 1..5 iterations, each on 1..4 clusters, and cg on one cluster.
func shortPopulation() []job.Spec {
	var out []job.Spec
	for _, w := range []string{"vl", "tm"} {
		for c := 1; c <= 4; c++ {
			for k := 1; k <= 4; k++ {
				out = append(out, job.Spec{Workload: w, Clusters: c, Size: 256 * c * k})
			}
		}
	}
	for c := 1; c <= 4; c++ {
		for it := 1; it <= 5; it++ {
			out = append(out, job.Spec{Workload: "mg3d", Clusters: c, Iterations: it})
		}
	}
	for it := 1; it <= 5; it++ {
		out = append(out, job.Spec{Workload: "cg", Clusters: 1, Iterations: it})
	}
	return out
}

// netPopulation: Table 1's global-memory rank-64 points at n=128 plus a
// barrier-heavy cg.
func netPopulation() []job.Spec {
	return []job.Spec{
		{Workload: "rk", Mode: "pref", Clusters: 4},
		{Workload: "rk", Mode: "nopref", Clusters: 4},
		{Workload: "rk", Mode: "pref", Clusters: 2},
		{Workload: "cg", Clusters: 4, Iterations: 10},
	}
}

// quietPopulation: fast-forwarded I/O parks (bdna), cache-mode rank-64
// and a long mg3d.
func quietPopulation() []job.Spec {
	return []job.Spec{
		{Workload: "bdna", Clusters: 4},
		{Workload: "bdna", Clusters: 2},
		{Workload: "rk", Mode: "cache", Clusters: 4},
		{Workload: "rk", Mode: "cache", Clusters: 2},
		{Workload: "mg3d", Clusters: 4, Iterations: 10},
	}
}

// cedardPopulation: 200 short specs a parameter sweep would submit.
func cedardPopulation() []job.Spec {
	off := false
	var out []job.Spec
	for _, w := range []string{"vl", "tm"} {
		for c := 1; c <= 4; c++ {
			for k := 1; k <= 6; k++ {
				size := 256 * c * k
				out = append(out,
					job.Spec{Workload: w, Clusters: c, Size: size},
					job.Spec{Workload: w, Clusters: c, Size: size, Prefetch: &off},
					job.Spec{Workload: w, Clusters: c, Size: size, Probe: &off})
			}
		}
	}
	for c := 1; c <= 4; c++ {
		for it := 1; it <= 6; it++ {
			out = append(out, job.Spec{Workload: "mg3d", Clusters: c, Iterations: it})
		}
		for it := 1; it <= 4; it++ {
			out = append(out, job.Spec{Workload: "mg3d", Clusters: c, Iterations: it, Prefetch: &off})
		}
	}
	for it := 1; it <= 8; it++ {
		out = append(out,
			job.Spec{Workload: "cg", Clusters: 1, Iterations: it},
			job.Spec{Workload: "cg", Clusters: 1, Iterations: it, Prefetch: &off})
	}
	return out
}

// warmupSpec is the one untimed job per kind (registry workload name)
// a job workload runs before its first timed op: small, so set-up stays
// short, but through the same code paths.
func warmupSpec(kind string) job.Spec {
	s := job.Spec{Workload: kind, Clusters: 1}
	switch kind {
	case "rk":
		s.Size = 32
	case "vl", "tm":
		s.Size = 256
	default:
		s.Iterations = 1
	}
	return s
}

// cedardWarmup is the warm-up request of cedard-sweeps' set-up; it lies
// outside the population so it pre-caches nothing the load draws.
var cedardWarmup = job.Spec{Workload: "vl", Clusters: 1, Size: 256 * 8}

// kinds returns the distinct registry workload names of specs, sorted.
func kinds(specs []job.Spec) []string {
	set := map[string]bool{}
	for _, s := range specs {
		set[s.Workload] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// drawList draws a job list of n entries from population with seed.
// The draw is stratified: the list is ⌊n/P⌋ seeded permutations of the
// P population specs, then n mod P specs drawn without replacement, so
// every list runs each spec about equally often and its expected cost
// does not swing with the seed. The seed decides the order and the
// remainder. Indices refer to population.
func drawList(population []job.Spec, n int, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	p := len(population)
	out := make([]int, 0, n)
	for len(out) < n {
		perm := r.Perm(p)
		if left := n - len(out); left < p {
			perm = perm[:left]
		}
		out = append(out, perm...)
	}
	return out
}

// distinct is the set of population indices list names.
func distinct(list []int) map[int]bool {
	set := map[int]bool{}
	for _, i := range list {
		set[i] = true
	}
	return set
}

// specLabel is a short human name for a spec in traces and reports.
func specLabel(s job.Spec) string {
	l := fmt.Sprintf("%s/c%d", s.Workload, s.Clusters)
	if s.Mode != "" {
		l += "/" + s.Mode
	}
	if s.Size != 0 {
		l += fmt.Sprintf("/n%d", s.Size)
	}
	if s.Iterations != 0 {
		l += fmt.Sprintf("/it%d", s.Iterations)
	}
	if s.Prefetch != nil && !*s.Prefetch {
		l += "/nopf"
	}
	if s.Probe != nil && !*s.Probe {
		l += "/noprobe"
	}
	return l
}
