// Command cedarsim runs a computational kernel on a configurable
// simulated Cedar and reports the paper's performance metrics.
//
//	cedarsim -kernel rk -mode cache -clusters 4 -n 256
//	cedarsim -kernel cg -clusters 2 -n 8192 -iters 5
//	cedarsim -kernel vl -clusters 1 -n 8192 -noprefetch
//	cedarsim -kernel tm -clusters 4 -n 4096 -probe
//	cedarsim -kernel bdna -clusters 4 -iters 3
//	cedarsim -kernel rk -trace-out trace.json -sample-every 500
//
// Kernels are looked up in the workload registry by name — rk (rank-64
// update), vl (vector load), tm (tridiagonal matrix-vector multiply),
// cg (conjugate gradient), bdna (formatted-I/O molecular dynamics),
// mg3d (raw-I/O seismic migration) — list any unknown name to see what
// is registered. Modes apply to rk: nopref, pref, cache (Table 1's
// three versions).
//
// The flags assemble a job.Spec — the same serializable job
// description cedard accepts over HTTP — and hand it to the shared
// runner; cedarsim is one door into the one Spec→runner path, and a
// bare `cedarsim -kernel X` runs the same job as cedard's
// {"workload":"X"}. The
// -engine flag selects the simulation engine path (wake-cached, the
// default, or the naive reference; results are bit-identical on both),
// -topology picks the machine configuration (cedar, or the PPT5
// scaled-up machine), and any nonsensical value exits with status 2
// like a malformed flag.
//
// Telemetry: -metrics-out dumps the final metrics registry,
// -trace-out writes a Chrome trace_event JSON timeline (open it at
// https://ui.perfetto.dev or chrome://tracing), -sample-every sets the
// sampling interval, -flame prints the text activity summary, -cpi
// prints the per-CE and per-phase CPI stack tables, -attr-out writes
// the per-interval cycle-attribution series as CSV, and -pprof serves
// net/http/pprof plus expvar runtime metrics for profiling the
// simulator itself.
package main

import (
	"errors"
	_ "expvar" // /debug/vars runtime metrics on the -pprof server
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -pprof server
	"os"
	"strings"

	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/job/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	kernel := flag.String("kernel", "rk", "workload name (see the registry listing on an unknown name)")
	mode := flag.String("mode", "pref", "rk memory mode: nopref, pref, cache")
	clusters := flag.Int("clusters", 4, "clusters (cedar topology: 1..4, 8 CEs each; scaled: up to 64)")
	topology := flag.String("topology", "cedar", "machine configuration: cedar (as built) or scaled (PPT5 scaled-up)")
	n := flag.Int("n", 0, "problem size (matrix order for rk, vector length otherwise); 0 = the kernel default, so a bare rk runs n=128")
	iters := flag.Int("iters", 0, "iterations / timesteps (cg, bdna, mg3d); 0 = the kernel default, 3 steps for bdna and mg3d")
	noPrefetch := flag.Bool("noprefetch", false, "disable prefetching (vl, tm, cg)")
	probe := flag.Bool("probe", true, "attach the performance monitor to CE 0's prefetch unit")
	metricsOut := flag.String("metrics-out", "", "write the final metrics registry to this file")
	traceOut := flag.String("trace-out", "", "write a Perfetto-loadable trace_event JSON timeline to this file")
	sampleEvery := flag.Int64("sample-every", 2000, "telemetry sampling interval in cycles")
	flame := flag.Bool("flame", false, "print the flamegraph-style activity summary")
	cpi := flag.Bool("cpi", false, "print the per-CE and per-phase CPI stack tables")
	attrOut := flag.String("attr-out", "", "write the per-interval per-CE cycle-attribution time series to this CSV file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and runtime metrics on this address (e.g. localhost:6060)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection schedule seed (non-negative)")
	faultRate := flag.Float64("fault-rate", 0, "mean injected faults per 10k cycles (0 disables fault injection)")
	faultKinds := flag.String("fault-kinds", "", "comma-separated fault kinds to inject (empty = all; known: "+strings.Join(fault.KindNames(), ",")+")")
	engine := flag.String("engine", "wake-cached", "engine path: naive, wake-cached")
	flag.Parse()

	// The only validation done at flag level is what the Spec cannot
	// express: driver-local telemetry settings and the shape of the
	// -fault-kinds list. Everything else is the Spec's job, so cedarsim
	// and cedard reject exactly the same inputs.
	if *sampleEvery <= 0 {
		usageError(fmt.Errorf("-sample-every %d: the sampling interval must be positive", *sampleEvery))
	}
	var kindFilter []string
	if *faultKinds != "" {
		for _, k := range strings.Split(*faultKinds, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kindFilter = append(kindFilter, k)
			}
		}
		if len(kindFilter) == 0 {
			usageError(fmt.Errorf("-fault-kinds %q: no kinds named (known: %s)", *faultKinds, strings.Join(fault.KindNames(), ",")))
		}
	}

	spec := job.Spec{
		Workload:   *kernel,
		Mode:       *mode,
		Prefetch:   job.Bool(!*noPrefetch),
		Probe:      job.Bool(*probe),
		Iterations: *iters,
		Size:       *n,
		Clusters:   *clusters,
		Topology:   *topology,
		Engine:     *engine,
		FaultSeed:  *faultSeed,
		FaultRate:  *faultRate,
		FaultKinds: kindFilter,
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "cedarsim: pprof:", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/ (runtime metrics at /debug/vars)\n", *pprofAddr)
	}

	jb, err := runner.Prepare(spec)
	if err != nil {
		var verr *job.ValidationError
		if errors.As(err, &verr) {
			usageError(fmt.Errorf("%s: invalid %s: %s", flagFor(verr.Field), verr.Field, verr.Reason))
		}
		fail(err)
	}
	m := jb.Machine

	// Telemetry is opt-in: without these flags the run never samples and
	// pays nothing.
	var att workload.Attachments
	var sampler *telemetry.Sampler
	if *metricsOut != "" || *traceOut != "" || *flame || *cpi || *attrOut != "" {
		sampler = m.NewSampler(sim.Cycle(*sampleEvery))
		att.Phases = sampler
	}

	res, err := jb.Execute(att)
	if err != nil {
		fail(err)
	}
	for _, note := range res.Notes {
		fmt.Println(note)
	}
	fmt.Println(res)
	fmt.Printf("simulated time: %.3f ms (%d cycles at 170 ns)\n",
		sim.Cycle(res.Cycles).Seconds()*1e3, res.Cycles)
	fmt.Printf("network: fwd injected=%d delivered=%d; rev injected=%d delivered=%d\n",
		m.Fwd.Injected, m.Fwd.Delivered, m.Rev.Injected, m.Rev.Delivered)
	for _, tbl := range res.Tables {
		fmt.Print(tbl)
	}

	if sampler == nil {
		return
	}
	sampler.Final()
	if *flame {
		if err := m.MachineFlame(sampler).Render(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *cpi {
		if err := m.CPIStack().Render(os.Stdout); err != nil {
			fail(err)
		}
		if err := m.PhaseCPIStack(sampler).Render(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *attrOut != "" {
		f, err := os.Create(*attrOut)
		if err != nil {
			fail(err)
		}
		if err := m.WriteAttrCSV(f, sampler); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("attr: wrote per-interval attribution for %d CEs to %s\n", m.NumCEs(), *attrOut)
	}
	if *metricsOut != "" {
		if err := os.WriteFile(*metricsOut, []byte(m.Registry().Dump()), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("metrics: wrote %d metrics to %s\n", m.Registry().Len(), *metricsOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := telemetry.WriteTrace(f, sampler); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace: wrote %d samples to %s (open at https://ui.perfetto.dev)\n",
			len(sampler.Samples()), *traceOut)
	}
}

// flagFor maps a job.Spec field name (its serialized form) back to the
// cedarsim flag that set it, so usage errors name the flag the user
// actually typed.
func flagFor(field string) string {
	m := map[string]string{
		"workload":    "-kernel",
		"mode":        "-mode",
		"size":        "-n",
		"iterations":  "-iters",
		"clusters":    "-clusters",
		"topology":    "-topology",
		"engine":      "-engine",
		"fault_seed":  "-fault-seed",
		"fault_rate":  "-fault-rate",
		"fault_kinds": "-fault-kinds",
	}
	if f, ok := m[field]; ok {
		return f
	}
	return field
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cedarsim:", err)
	os.Exit(1)
}

// usageError reports a bad flag value the way flag.Parse reports a
// malformed one: message plus usage to stderr, exit status 2.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "cedarsim:", err)
	flag.Usage()
	os.Exit(2)
}
