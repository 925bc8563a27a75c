package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// TestDrawListSeeded: the same seed draws the same list; another seed
// draws another list from the same population, with the same number of
// each spec.
func TestDrawListSeeded(t *testing.T) {
	for _, w := range workloads {
		if w.isCedard() {
			continue
		}
		a := drawList(w.population, w.jobs, 1)
		if !reflect.DeepEqual(a, drawList(w.population, w.jobs, 1)) {
			t.Fatalf("%s: seed 1 drew two different lists", w.name)
		}
		b := drawList(w.population, w.jobs, 2)
		if reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seeds 1 and 2 drew the same list", w.name)
		}
		if len(a) != w.jobs || len(b) != w.jobs {
			t.Fatalf("%s: lists of %d and %d, want %d", w.name, len(a), len(b), w.jobs)
		}
		count := func(list []int) []int {
			c := make([]int, len(w.population))
			for _, i := range list {
				c[i]++
			}
			return c
		}
		ca, cb := count(a), count(b)
		if !reflect.DeepEqual(ca, cb) {
			t.Fatalf("%s: seeds weight the population differently: %v vs %v", w.name, ca, cb)
		}
		for i, n := range ca {
			if n != w.jobs/len(w.population) {
				t.Fatalf("%s: spec %s listed %d times, want %d", w.name, specLabel(w.population[i]), n, w.jobs/len(w.population))
			}
		}
	}
	// A list shorter than the population is a seeded subset.
	pop := shortPopulation()
	short := drawList(pop, 5, 3)
	uniq := slices.Clone(short)
	slices.Sort(uniq)
	if len(short) != 5 || len(slices.Compact(uniq)) != 5 {
		t.Fatalf("drawList(n=5) = %v, want five distinct specs", short)
	}
}

// TestCedardStreamSeeded: the cedard stream is reproducible per seed,
// differs across seeds, its ramp sends every hot spec, and its window
// meets every cold spec once.
func TestCedardStreamSeeded(t *testing.T) {
	w, err := workloadByName(cedardWorkload)
	if err != nil {
		t.Fatal(err)
	}
	l := newCedardLoad(w.population, goldens{})
	const nRamp = 192
	stream := func(seed int64) [][]int {
		s := newSampler(len(w.population), seed)
		var out [][]int
		for i := 0; i < nRamp+1024; i++ {
			out = append(out, s.batch(l, s.last(i, nRamp), nil).specs)
		}
		return out
	}
	a := stream(1)
	if !reflect.DeepEqual(a, stream(1)) {
		t.Fatal("seed 1 drew two different streams")
	}
	if reflect.DeepEqual(a, stream(2)) {
		t.Fatal("seeds 1 and 2 drew the same stream")
	}
	hot := map[int]bool{}
	for _, i := range newSampler(len(w.population), 9).hot {
		hot[i] = true
	}
	cold := map[int]int{}
	warmed := map[int]bool{}
	for i, specs := range a {
		if len(specs) < 1 || len(specs) > maxBatch {
			t.Fatalf("batch %d has %d specs", i, len(specs))
		}
		for k, s := range specs {
			if s < 0 || s >= len(w.population) {
				t.Fatalf("batch %d: spec index %d", i, s)
			}
			switch {
			case i < nRamp && hot[s]:
				warmed[s] = true
			case i >= nRamp && hot[s] && !warmed[s]:
				t.Fatalf("batch %d: hot spec %d was not warmed by the ramp", i, s)
			case !hot[s] && (i < nRamp || (i-nRamp)%coldEvery != 0 || k != len(specs)-1):
				t.Fatalf("batch %d: cold spec %d outside a cold slot", i, s)
			case !hot[s]:
				cold[s]++
			}
		}
	}
	if len(cold) != len(w.population)-hotSpecs {
		t.Fatalf("window met %d cold specs, want all %d", len(cold), len(w.population)-hotSpecs)
	}
	for s, n := range cold {
		if n != 1 {
			t.Fatalf("cold spec %d met %d times", s, n)
		}
	}
}

// TestGoldensCoverEverySpec: every spec the benchmark can run has a
// golden, and the file holds nothing else; the cedard warm-up lies
// outside the population it must not pre-cache.
func TestGoldensCoverEverySpec(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	specs := goldenSpecs()
	for _, s := range specs {
		if _, ok := g[mustFingerprint(s)]; !ok {
			t.Errorf("no golden for %s (run -update-golden)", specLabel(s))
		}
	}
	if len(g) != len(specs) {
		t.Errorf("golden.json holds %d entries for %d specs", len(g), len(specs))
	}
	w, err := workloadByName(cedardWorkload)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w.population {
		if mustFingerprint(s) == mustFingerprint(cedardWarmup) {
			t.Fatalf("cedard warm-up %s is in the population", specLabel(s))
		}
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram: BENCHMARK.json describes exactly the
// workloads and metrics this program emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nprogram        %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nprogram        %+v", b.PerLayer, perLayer)
	}
	for _, d := range endToEnd {
		if d.Name != "setup_s" && d.Bound > endToEnd[0].Bound {
			t.Errorf("%s bound %g exceeds setup_s's", d.Name, d.Bound)
		}
	}
}
