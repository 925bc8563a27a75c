// Package runner executes a job.Spec against a simulated Cedar — the
// single Spec→machine→result path both drivers share. cedarsim parses
// flags into a Spec and calls this package; cedard decodes the same
// Spec from HTTP bodies and calls this package; a given Spec therefore
// means exactly one simulation no matter which door it came through.
//
// Prepare splits from Execute so a driver can attach runtime observers
// (a telemetry sampler needs the machine before the run starts) between
// building the machine and running the workload.
package runner

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// engineModes maps Spec.Engine names onto engine paths. Results are
// bit-identical across both; the naive path exists for the equivalence
// tests and benchmarking.
var engineModes = map[string]sim.EngineMode{
	"naive":       sim.ModeNaive,
	"wake-cached": sim.ModeWakeCached,
}

// Job is a prepared simulation: a normalized Spec plus the machine
// built for it, ready to Execute once the driver has attached whatever
// observers it wants.
type Job struct {
	// Spec is the normalized spec the machine was built from.
	Spec job.Spec
	// Machine is the assembled Cedar. Drivers may read it (to build a
	// sampler, to print network counters) but must not run anything on
	// it outside Execute.
	Machine *core.Machine
}

// normalize is Spec.Normalized plus the one check only the runner can
// make: that the workload names a kernel.
func normalize(spec job.Spec) (job.Spec, error) {
	n, err := spec.Normalized()
	if err != nil {
		return job.Spec{}, err
	}
	if names := kernels.Names(); !slices.Contains(names, n.Workload) {
		return job.Spec{}, &job.ValidationError{
			Field:  "workload",
			Reason: fmt.Sprintf("unknown workload %q (available: %s)", n.Workload, strings.Join(names, ", ")),
		}
	}
	return n, nil
}

// Validate reports whether spec describes a simulation this runner can
// execute — everything Prepare would reject, without building a
// machine. cedard uses it to refuse a whole batch up front.
func Validate(spec job.Spec) error {
	_, err := normalize(spec)
	return err
}

// Prepare validates and normalizes spec, checks its workload names a
// kernel, and assembles the machine: topology and cluster count pick
// the configuration, the engine name picks the engine path, and a
// non-zero fault rate arms the deterministic injector. Spec-level
// failures (including an unknown workload name) are *ValidationError.
func Prepare(spec job.Spec) (*Job, error) {
	n, err := normalize(spec)
	if err != nil {
		return nil, err
	}
	var cfg core.Config
	if n.Topology == "scaled" {
		cfg = core.ScaledConfig(n.Clusters)
	} else {
		cfg = core.ConfigClusters(n.Clusters)
	}
	cfg.EngineMode = engineModes[n.Engine]
	if n.FaultRate > 0 {
		cfg.Fault = fault.DefaultConfig(uint64(n.FaultSeed))
		cfg.Fault.MeanInterval = sim.Cycle(10000 / n.FaultRate)
		if err := cfg.Fault.EnableOnly(n.FaultKinds); err != nil {
			return nil, &job.ValidationError{Field: "fault_kinds", Reason: err.Error()}
		}
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Job{Spec: n, Machine: m}, nil
}

// Execute runs the prepared workload with the given runtime attachments
// and completes the kernel's job.Result with what only the machine
// knows: the rendered report tables, the registry fingerprint (the
// determinism witness identical Specs reproduce bit-for-bit) and, on
// faulted runs, the injection census. Execute is one-shot: the machine
// is consumed by the run (its counters and registry stay readable).
func (j *Job) Execute(att workload.Attachments) (job.Result, error) {
	out, err := kernels.Run(j.Spec.Workload, j.Machine, j.Spec.Params(), att)
	if err != nil {
		return job.Result{}, err
	}
	m := j.Machine
	out.Tables = append(out.Tables, m.Utilization().String())
	if t := IPTable(m); t != nil {
		out.Tables = append(out.Tables, renderTable(t))
	}
	if m.FaultInj != nil {
		out.Tables = append(out.Tables, renderTable(m.FaultInj.SummaryTable()))
		out.FaultCensus = m.FaultInj.Census()
	}
	out.RegistryFingerprint = m.Registry().Fingerprint()
	return out, nil
}

// Run is the one-call path: Prepare plus Execute with no attachments —
// what cedard's result cache invokes per distinct fingerprint.
func Run(spec job.Spec) (job.Result, error) {
	j, err := Prepare(spec)
	if err != nil {
		return job.Result{}, err
	}
	return j.Execute(workload.Attachments{})
}

// IPTable renders the per-cluster interactive-processor I/O counters,
// or nil when the run did no I/O.
func IPTable(m *core.Machine) *report.Table {
	var total int64
	for _, clu := range m.Clusters {
		total += clu.IPs.Requests
	}
	if total == 0 {
		return nil
	}
	t := report.NewTable("Cluster I/O (interactive processors)",
		"ip", "requests", "words", "busy cycles", "avg wait")
	for i, clu := range m.Clusters {
		ip := clu.IPs
		avg := "-"
		if ip.Completions > 0 {
			avg = fmt.Sprintf("%.0f", float64(ip.WaitCycles)/float64(ip.Completions))
		}
		t.AddRow(fmt.Sprintf("ip%d", i), fmt.Sprint(ip.Requests),
			fmt.Sprint(ip.WordsMoved), fmt.Sprint(ip.BusyCycles), avg)
	}
	return t
}

func renderTable(t *report.Table) string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		// A strings.Builder write cannot fail; a render bug should not
		// silently drop a table from the result.
		panic(err)
	}
	return b.String()
}
