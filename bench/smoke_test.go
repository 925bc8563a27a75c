package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/job/runner"
)

// TestSmoke builds the benchmark and cedard, runs every workload scaled
// down (one second, two-job lists) untraced and traced, and checks the
// output contract: the last line is the result object, every run is
// correct, and it carries exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark; skipped with -short")
	}
	dir := t.TempDir()
	bench, cedard := filepath.Join(dir, "bench"), filepath.Join(dir, "cedard")
	for _, b := range [][]string{{"-o", bench, "."}, {"-o", cedard, "repro/cmd/cedard"}} {
		if out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	spec := readBenchmarkJSON(t)
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
			t.Run(w.name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				t.Parallel()
				traces := t.TempDir()
				cmd := exec.Command(bench, "--workload", w.name, "--seed", "1", "--seconds", "1",
					"--trace", strconv.Itoa(trace), "-jobs", "2", "-cedard", cedard, "-trace-dir", traces)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				var got []string
				for k, v := range res.Metrics {
					got = append(got, k)
					for _, d := range defs {
						if d.Name == k && d.Unit != v.Unit {
							t.Errorf("%s in %s, BENCHMARK.json says %s", k, v.Unit, d.Unit)
						}
					}
				}
				sort.Strings(got)
				if want := names(defs); !reflect.DeepEqual(got, want) {
					t.Fatalf("metrics %v\nwant %v", got, want)
				}
				if !strings.Contains(string(out), "host {") {
					t.Errorf("no host metadata in the output")
				}
				if trace == 1 {
					data, err := os.ReadFile(filepath.Join(traces, w.name+"-seed1.json"))
					if err != nil {
						t.Fatal(err)
					}
					var tf struct {
						TraceEvents []map[string]any `json:"traceEvents"`
					}
					if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) < 3 {
						t.Fatalf("trace file: %v, %d events", err, len(tf.TraceEvents))
					}
				}
			})
		}
	}
}

// TestGoldenSample runs one cheap spec of every kind on the default
// engine and checks it against its naive-engine golden.
func TestGoldenSample(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	specs := []job.Spec{cedardWarmup}
	for _, k := range []string{"bdna", "cg", "mg3d", "rk", "tm", "vl"} {
		specs = append(specs, warmupSpec(k))
	}
	for _, s := range specs {
		res, err := runner.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", specLabel(s), err)
		}
		if err := g.verify(mustFingerprint(s), s, res); err != nil {
			t.Error(err)
		}
	}
}
