// Package tables regenerates every exhibit of the paper's evaluation and
// of this reproduction's extension studies, listed in one ordered
// Catalog that cmd/tables loops over. Tables 1 and 2, the Section 4.3
// scalability study, PPT5, the memory probes and the ablations come from
// machine simulation; Tables 3 and 4, the per-code view and the
// data-size study from the calibrated Perfect models; Tables 5 and 6 and
// Figure 3 from the methodology over the cross-machine dataset. The
// cells of Tables 1 and 2 and PPT5's kernel runs are job Specs, run
// through the same runner cedarsim and cedard use.
//
// Each Run* function returns structured data with the paper's published
// values alongside the reproduced ones, and renders a text exhibit.
package tables

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/job/runner"
	"repro/internal/perfect"
)

// Options are the knobs the exhibits read; each ignores the others.
type Options struct {
	N     int           // rank-64 matrix order for table1
	Quick bool          // reduced grids for scal and ppt5
	Rates perfect.Rates // table3, table4, sizes, codes; what-if studies change them
	Code  string        // codes: the one Perfect code to show ("" shows all)
	// memload, memstride: one source count and rate (0 sweeps them),
	// write share, cycles per point, and the contentionless fabric.
	Sources int
	Rate    float64
	Writes  float64
	Cycles  int
	Ideal   bool
}

// DefaultOptions are the options a bare cmd/tables runs with.
func DefaultOptions() Options {
	return Options{N: 256, Rates: perfect.DefaultRates(), Cycles: 20000}
}

// Check rejects an N below 1, Rates the Perfect models cannot run
// under, a Code that names no Perfect code, and memory-probe settings
// memchar cannot run: a source count outside 0..64, a rate outside
// [0, 1], a write share outside [0, 1) and fewer than one cycle.
func (o Options) Check() error {
	switch {
	case o.N < 1:
		return fmt.Errorf("-n %d: the rank-64 matrix order must be positive", o.N)
	case o.Sources < 0 || o.Sources > 64:
		return fmt.Errorf("-sources %d: the memload source count must be 1..64, or 0 to sweep", o.Sources)
	case !(o.Rate >= 0 && o.Rate <= 1):
		return fmt.Errorf("-rate %g: the memload issue rate must be in (0, 1], or 0 to sweep", o.Rate)
	case !(o.Writes >= 0 && o.Writes < 1):
		return fmt.Errorf("-writes %g: the memload write share must be in [0, 1)", o.Writes)
	case o.Cycles < 1:
		return fmt.Errorf("-cycles %d: the memory probes must run at least one cycle", o.Cycles)
	}
	_, err := RunCodes(o.Rates, o.Code)
	return err
}

// Renderer is an exhibit's data: it writes itself as text.
type Renderer interface {
	Render(w io.Writer) error
}

// Exhibit is one catalog entry.
type Exhibit struct {
	Name    string
	About   string // one line for the usage message
	Default bool   // printed by a bare cmd/tables
	Run     func(Options) (Renderer, error)
}

// Catalog is every exhibit, in the order cmd/tables prints them.
var Catalog = []Exhibit{
	{"table1", "Table 1: rank-64 update, memory modes x clusters (-n)", true, func(o Options) (Renderer, error) { return RunTable1(o.N) }},
	{"table2", "Table 2: global memory under prefetch", true, func(Options) (Renderer, error) { return RunTable2() }},
	{"table3", "Table 3: the Perfect codes on Cedar (modeled)", true, func(o Options) (Renderer, error) { return RunTable3(o.Rates) }},
	{"table4", "Table 4: hand-optimized Perfect codes (modeled)", true, func(o Options) (Renderer, error) { return RunTable4(o.Rates) }},
	{"table5", "Table 5: instability, Cedar vs YMP-8 vs Cray-1", true, func(Options) (Renderer, error) { return RunTable5(), nil }},
	{"table6", "Table 6: restructuring-efficiency bands", true, func(Options) (Renderer, error) { return RunTable6(), nil }},
	{"fig1", "Figures 1 and 2: the machine organization", false, func(Options) (Renderer, error) { return RunFigure1(), nil }},
	{"fig3", "Figure 3: YMP-8 vs Cedar efficiency scatter", true, func(Options) (Renderer, error) { return RunFigure3(), nil }},
	{"scal", "Section 4.3: CG and CM-5 scalability (-quick)", true, func(o Options) (Renderer, error) { return RunScalability(o.Quick) }},
	{"ppt5", "PPT5: scaled-up Cedar-like machines (-quick)", true, func(o Options) (Renderer, error) { return RunPPT5(o.Quick) }},
	{"sizes", "data-size stability of the Perfect models", true, func(o Options) (Renderer, error) { return RunSizeStability(o.Rates) }},
	{"codes", "one or every Perfect code, all variants (-code)", false, func(o Options) (Renderer, error) { return RunCodes(o.Rates, o.Code) }},
	{"memload", "network and memory load-latency probe", false, func(o Options) (Renderer, error) { return RunMemLoad(o) }},
	{"memstride", "memory stride sweep, module aliasing", false, func(o Options) (Renderer, error) { return RunMemStride(o) }},
	{"ablations", "one design choice varied at a time", false, func(Options) (Renderer, error) { return RunAblations() }},
}

// Select returns the named exhibits in catalog order, or the default
// ones when names is empty; an unknown name is an error that lists the
// known ones.
func Select(names []string) ([]Exhibit, error) {
	var sel []Exhibit
	known := make([]string, len(Catalog))
	for i, e := range Catalog {
		known[i] = e.Name
		if slices.Contains(names, e.Name) || len(names) == 0 && e.Default {
			sel = append(sel, e)
		}
	}
	for _, n := range names {
		if !slices.Contains(known, n) {
			return nil, fmt.Errorf("unknown exhibit %q (known: %s)", n, strings.Join(known, ", "))
		}
	}
	return sel, nil
}

// runSpecs runs an exhibit's cells, one goroutine per Spec, through one
// job.Service with a worker per GOMAXPROCS, and returns their results in
// list order. A failure names the exhibit and the first failing Spec in
// list order.
func runSpecs(exhibit string, specs []job.Spec) ([]job.Result, error) {
	svc := job.NewService(runner.Run, 1, runtime.GOMAXPROCS(0))
	res := make([]job.Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], _, errs[i] = svc.Do(spec)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			cell, _ := json.Marshal(specs[i]) // fails only on a NaN or infinite FaultRate, which no exhibit sets
			return nil, fmt.Errorf("%s %s: %w", exhibit, cell, err)
		}
	}
	return res, nil
}

// Figure1Data is Figures 1 and 2: the organization of a machine.
type Figure1Data struct{ Machine *core.Machine }

// RunFigure1 assembles the as-built machine.
func RunFigure1() *Figure1Data { return &Figure1Data{core.MustNew(core.DefaultConfig())} }

// Render writes the organization.
func (d *Figure1Data) Render(w io.Writer) error {
	_, err := fmt.Fprintf(w, "Figures 1 and 2: the Cedar and cluster organization (rendered from the assembled machine)\n%s\n",
		d.Machine.Topology())
	return err
}
