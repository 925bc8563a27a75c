package tables

import (
	"fmt"
	"io"

	"repro/internal/job"
	"repro/internal/report"
)

// Table2Published holds the paper's Table 2: prefetch speedup, first-word
// latency and interarrival time for the four kernels at 8/16/32 CEs.
var Table2Published = map[string]struct {
	Speedup      [3]float64
	Latency      [3]float64
	Interarrival [3]float64
}{
	"TM": {Speedup: [3]float64{2.1, 2.0, 1.5}, Latency: [3]float64{9.4, 10.2, 14.2}, Interarrival: [3]float64{1.1, 1.2, 2.1}},
	"CG": {Speedup: [3]float64{2.4, 2.2, 1.5}, Latency: [3]float64{9.4, 10.3, 15.1}, Interarrival: [3]float64{1.1, 1.2, 2.1}},
	"VF": {Speedup: [3]float64{1.8, 1.7, 1.5}, Latency: [3]float64{9.6, 11.0, 16.7}, Interarrival: [3]float64{1.2, 1.4, 2.2}},
	"RK": {Speedup: [3]float64{3.4, 2.9, 1.8}, Latency: [3]float64{12.9, 15.3, 18.3}, Interarrival: [3]float64{1.2, 1.8, 3.2}},
}

// Table2Row is one kernel at one machine width.
type Table2Row struct {
	Kernel       string
	CEs          int
	Speedup      float64 // time(no prefetch) / time(prefetch)
	Latency      float64 // first-word latency, cycles
	Interarrival float64 // cycles between remaining words of a block
}

// Table2Data is the regenerated Table 2.
type Table2Data struct {
	Rows []Table2Row
}

// Get returns the row for a kernel and CE count.
func (d *Table2Data) Get(kernel string, ces int) (Table2Row, bool) {
	for _, r := range d.Rows {
		if r.Kernel == kernel && r.CEs == ces {
			return r, true
		}
	}
	return Table2Row{}, false
}

// table2Kernels are Table 2's four kernels, each as the Spec of its run
// with prefetch, which carries the probe. The baseline run is the same
// Spec with prefetch and the probe off; rk, whose prefetching is its
// memory mode, drops to nopref as well.
var table2Kernels = []struct {
	name string
	spec job.Spec
}{
	{"TM", job.Spec{Workload: "tm", Size: 4096}},
	// 4 CG iterations are enough for the steady-state rates.
	{"CG", job.Spec{Workload: "cg", Size: 4096, Iterations: 4}},
	{"VF", job.Spec{Workload: "vl", Size: 8192}},
	{"RK", job.Spec{Workload: "rk", Size: 128, Mode: "pref"}},
}

// RunTable2 measures the four kernels (TM, CG, VF, RK) at 8, 16 and 32
// processors, global data only, with the hardware monitor attached to a
// single processor's prefetch unit, as the paper does: 24 job Specs, a
// baseline and a prefetching run per kernel and width.
func RunTable2() (*Table2Data, error) {
	var specs []job.Spec
	var names []string
	for _, clusters := range []int{1, 2, 4} {
		for _, k := range table2Kernels {
			on := k.spec
			on.Clusters = clusters
			off := on
			off.Prefetch, off.Probe = job.Bool(false), job.Bool(false)
			if off.Mode != "" {
				off.Mode = "nopref"
			}
			specs = append(specs, off, on)
			names = append(names, k.name)
		}
	}
	res, err := runSpecs("table 2", specs)
	if err != nil {
		return nil, err
	}
	d := &Table2Data{}
	for i, name := range names {
		off, on := res[2*i], res[2*i+1]
		d.Rows = append(d.Rows, Table2Row{
			Kernel:       name,
			CEs:          on.CEs,
			Speedup:      float64(off.Cycles) / float64(on.Cycles),
			Latency:      *on.LatencyCycles,
			Interarrival: *on.InterarrivalCycles,
		})
	}
	return d, nil
}

// Render writes the table in the paper's layout with published values.
func (d *Table2Data) Render(w io.Writer) error {
	t := report.NewTable(
		"Table 2: Global memory performance (measured; paper in parentheses)",
		"kernel",
		"speedup 8", "speedup 16", "speedup 32",
		"latency 8", "latency 16", "latency 32",
		"interarr 8", "interarr 16", "interarr 32")
	for _, k := range []string{"TM", "CG", "VF", "RK"} {
		pub := Table2Published[k]
		row := []string{k}
		for i, ces := range []int{8, 16, 32} {
			r, _ := d.Get(k, ces)
			row = append(row, fmt.Sprintf("%s (%s)", report.F(r.Speedup), report.F(pub.Speedup[i])))
		}
		for i, ces := range []int{8, 16, 32} {
			r, _ := d.Get(k, ces)
			row = append(row, fmt.Sprintf("%s (%s)", report.F(r.Latency), report.F(pub.Latency[i])))
		}
		for i, ces := range []int{8, 16, 32} {
			r, _ := d.Get(k, ces)
			row = append(row, fmt.Sprintf("%s (%s)", report.F(r.Interarrival), report.F(pub.Interarrival[i])))
		}
		t.AddRow(row...)
	}
	t.AddNote("minimal latency 8 cycles, minimal interarrival 1 cycle; single-processor monitor")
	return t.Render(w)
}
