package tables

import (
	"fmt"
	"io"

	"repro/internal/job"
	"repro/internal/report"
	"repro/internal/workload"
)

// Table1Published holds the paper's Table 1 (MFLOPS for the rank-64
// update of a 1K x 1K matrix), indexed [mode][clusters-1].
var Table1Published = map[workload.Mode][4]float64{
	workload.GMNoPrefetch: {14.5, 29.0, 43.0, 55.0},
	workload.GMPrefetch:   {50.0, 84.0, 96.0, 104.0},
	workload.GMCache:      {52.0, 104.0, 152.0, 208.0},
}

// Table1Cell is one measured cell.
type Table1Cell struct {
	Mode     workload.Mode
	Clusters int
	MFLOPS   float64
	Paper    float64
}

// Table1Data is the regenerated Table 1.
type Table1Data struct {
	N     int
	Cells []Table1Cell
}

// Get returns the measured MFLOPS for a mode and cluster count.
func (d *Table1Data) Get(mode workload.Mode, clusters int) float64 {
	for _, c := range d.Cells {
		if c.Mode == mode && c.Clusters == clusters {
			return c.MFLOPS
		}
	}
	return 0
}

// RunTable1 runs the rank-64 update in all three memory modes on one
// through four clusters: twelve job Specs. The paper uses n = 1K; the
// rates are steady-state, so smaller multiples of the machine width
// reproduce the same table much faster (n = 256 is the benchmark
// default).
func RunTable1(n int) (*Table1Data, error) {
	var specs []job.Spec
	for clusters := 1; clusters <= 4; clusters++ {
		for _, mode := range []string{"nopref", "pref", "cache"} {
			specs = append(specs, job.Spec{Workload: "rk", Mode: mode, Size: n, Clusters: clusters})
		}
	}
	res, err := runSpecs("table 1", specs)
	if err != nil {
		return nil, err
	}
	d := &Table1Data{N: n}
	for i, s := range specs {
		mode := s.Params().Mode
		d.Cells = append(d.Cells, Table1Cell{
			Mode:     mode,
			Clusters: s.Clusters,
			MFLOPS:   res[i].MFLOPS,
			Paper:    Table1Published[mode][s.Clusters-1],
		})
	}
	return d, nil
}

// Render writes the table with measured and published values.
func (d *Table1Data) Render(w io.Writer) error {
	t := report.NewTable(
		fmt.Sprintf("Table 1: MFLOPS for rank-64 update on Cedar (n=%d; paper n=1K in parentheses)", d.N),
		"version", "1 cl.", "2 cl.", "3 cl.", "4 cl.")
	for _, mode := range []workload.Mode{workload.GMNoPrefetch, workload.GMPrefetch, workload.GMCache} {
		row := []string{mode.String()}
		for cl := 1; cl <= 4; cl++ {
			row = append(row, fmt.Sprintf("%s (%s)",
				report.F(d.Get(mode, cl)), report.F(Table1Published[mode][cl-1])))
		}
		t.AddRow(row...)
	}
	t.AddNote("all versions chain two operations per memory request; matrices in global memory")
	return t.Render(w)
}
