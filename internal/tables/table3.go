package tables

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/compare"
	"repro/internal/perfect"
	"repro/internal/report"
)

// Table3Row is one Perfect code's modeled results in the paper's layout.
type Table3Row struct {
	Code            string
	KapSeconds      float64
	KapImprovement  float64
	AutoSeconds     float64
	AutoImprovement float64
	NoSyncSeconds   float64
	NoSyncSlowdown  float64 // fraction vs Auto
	NoPrefSeconds   float64
	NoPrefSlowdown  float64 // fraction vs NoSync (the paper's convention)
	MFLOPS          float64
	YMPRatio        float64
	HasAuto         bool
}

// Table3Data is the regenerated Table 3.
type Table3Data struct {
	Rows  []Table3Row
	Suite []*perfect.Profile
	Rates perfect.Rates
}

// RunTable3 evaluates the calibrated Perfect models under the given
// rates (perfect.DefaultRates are the ones measured from the simulator).
func RunTable3(r perfect.Rates) (*Table3Data, error) {
	suite, err := perfect.NewSuite(r)
	if err != nil {
		return nil, err
	}
	ds := compare.Dataset()
	ratio := map[string]float64{}
	for _, c := range ds {
		ratio[c.Name] = c.YMPOverCedar
	}
	d := &Table3Data{Suite: suite, Rates: r}
	for _, p := range suite {
		row := Table3Row{Code: p.Name, YMPRatio: ratio[p.Name]}
		row.KapSeconds, err = p.Time(perfect.KAP, r)
		if err != nil {
			return nil, err
		}
		row.KapImprovement = p.SerialSeconds / row.KapSeconds
		auto, err := p.Time(perfect.Auto, r)
		switch {
		case err == nil:
			row.HasAuto = true
			row.AutoSeconds = auto
			row.AutoImprovement = p.SerialSeconds / auto
			ns, err := p.Time(perfect.AutoNoSync, r)
			if err != nil {
				return nil, err
			}
			np, err := p.Time(perfect.AutoNoPref, r)
			if err != nil {
				return nil, err
			}
			row.NoSyncSeconds = ns
			row.NoSyncSlowdown = (ns - auto) / auto
			row.NoPrefSeconds = np
			row.NoPrefSlowdown = (np - ns) / ns
			mf, err := p.CedarMFLOPS(r)
			if err != nil {
				return nil, err
			}
			row.MFLOPS = mf
		case errors.Is(err, perfect.ErrNoVariant):
			row.MFLOPS = p.Targets.MFLOPS
		default:
			return nil, err
		}
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// Get returns the row for a code.
func (d *Table3Data) Get(code string) (Table3Row, bool) {
	for _, r := range d.Rows {
		if r.Code == code {
			return r, true
		}
	}
	return Table3Row{}, false
}

// Render writes the table in the paper's layout.
func (d *Table3Data) Render(w io.Writer) error {
	t := report.NewTable(
		"Table 3: Cedar execution time, megaflops, and speed improvement for Perfect Benchmarks (modeled)",
		"program", "kap t (imp)", "auto t (imp)", "w/o sync (slow)", "w/o pref (slow)", "MFLOPS", "YMP-8/Cedar")
	for _, r := range d.Rows {
		if !r.HasAuto {
			t.AddRow(r.Code,
				fmt.Sprintf("%s (%s)", report.F(r.KapSeconds), report.F(r.KapImprovement)),
				"NA", "NA", "NA",
				report.F(r.MFLOPS), ratioString(r.YMPRatio))
			continue
		}
		t.AddRow(r.Code,
			fmt.Sprintf("%s (%s)", report.F(r.KapSeconds), report.F(r.KapImprovement)),
			fmt.Sprintf("%s (%s)", report.F(r.AutoSeconds), report.F(r.AutoImprovement)),
			fmt.Sprintf("%s (%s)", report.F(r.NoSyncSeconds), report.Pct(r.NoSyncSlowdown)),
			fmt.Sprintf("%s (%s)", report.F(r.NoPrefSeconds), report.Pct(r.NoPrefSlowdown)),
			report.F(r.MFLOPS), ratioString(r.YMPRatio))
	}
	t.AddNote("MG3D eliminates file I/O; 'slow' columns per the paper's conventions")
	return t.Render(w)
}

func ratioString(r float64) string {
	if r == 0 {
		return "-"
	}
	if r < 1 {
		return fmt.Sprintf("(1:%s)", report.F(1/r))
	}
	return report.F(r)
}

// Table4Row is one hand-optimized result.
type Table4Row struct {
	Code        string
	Variant     string
	Seconds     float64
	Paper       float64
	Improvement float64 // over automatable w/ prefetch, w/o Cedar sync
	Description string
}

// Table4Data is the regenerated Table 4 plus the Section 4.2 text's
// additional hand-optimized results.
type Table4Data struct {
	Rows []Table4Row
}

// RunTable4 evaluates the hand-optimization mechanisms.
func RunTable4(r perfect.Rates) (*Table4Data, error) {
	suite, err := perfect.NewSuite(r)
	if err != nil {
		return nil, err
	}
	d := &Table4Data{}
	for _, p := range suite {
		for i := range p.Hands {
			h := &p.Hands[i]
			sec := p.HandTime(h, r)
			row := Table4Row{
				Code: p.Name, Variant: h.Name, Seconds: sec, Paper: h.TargetSeconds,
				Description: h.Description,
			}
			if base, err := p.Time(perfect.AutoNoSync, r); err == nil {
				row.Improvement = base / sec
			}
			d.Rows = append(d.Rows, row)
		}
	}
	return d, nil
}

// Get returns the primary hand row for a code.
func (d *Table4Data) Get(code string) (Table4Row, bool) {
	for _, r := range d.Rows {
		if r.Code == code {
			return r, true
		}
	}
	return Table4Row{}, false
}

// Render writes the table.
func (d *Table4Data) Render(w io.Writer) error {
	t := report.NewTable(
		"Table 4: Execution times (secs) for manually altered Perfect codes (modeled; paper in parentheses)",
		"code", "variant", "time", "paper", "improvement", "what changed")
	for _, r := range d.Rows {
		imp := "-"
		if r.Improvement > 0 {
			imp = report.F(r.Improvement)
		}
		t.AddRow(r.Code, r.Variant, report.F(r.Seconds), report.F(r.Paper), imp, r.Description)
	}
	t.AddNote("improvement over automatable w/ prefetch and w/o Cedar synchronization, as in the paper")
	return t.Render(w)
}
