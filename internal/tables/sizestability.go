package tables

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/methodology"
	"repro/internal/perfect"
	"repro/internal/report"
)

// SizeStabilityData is the data-size experiment the paper proposes in
// its PPT2 discussion ("varying the data size and observing stability
// would be instructive"): the Perfect models evaluated at scaled
// problem sizes, with the ensemble's instability at each scale.
type SizeStabilityData struct {
	Scales []float64
	// Rates[i] is the per-code MFLOPS ensemble at Scales[i] (codes with
	// automatable results only).
	Rates [][]float64
	Codes []string
	// In0 / In2 are the instabilities at 0 and 2 exclusions per scale.
	In0, In2 []float64
}

// RunSizeStability evaluates the automatable Perfect models at problem
// scales 1/4x, 1x, 4x and 16x.
func RunSizeStability(r perfect.Rates) (*SizeStabilityData, error) {
	suite, err := perfect.NewSuite(r)
	if err != nil {
		return nil, err
	}
	d := &SizeStabilityData{Scales: []float64{0.25, 1, 4, 16}}
	for _, k := range d.Scales {
		var rates []float64
		for _, p := range suite {
			mf, err := p.MFLOPSScaled(perfect.Auto, r, k)
			if errors.Is(err, perfect.ErrNoVariant) {
				continue
			}
			if err != nil {
				return nil, err
			}
			if len(d.Rates) == 0 {
				d.Codes = append(d.Codes, p.Name)
			}
			rates = append(rates, mf)
		}
		d.Rates = append(d.Rates, rates)
		d.In0 = append(d.In0, methodology.Instability(rates, 0))
		d.In2 = append(d.In2, methodology.Instability(rates, 2))
	}
	return d, nil
}

// Render writes the exhibit.
func (d *SizeStabilityData) Render(w io.Writer) error {
	headers := []string{"code"}
	for _, k := range d.Scales {
		headers = append(headers, fmt.Sprintf("MFLOPS @%gx", k))
	}
	t := report.NewTable(
		"Data-size stability (extension; the experiment the paper's PPT2 discussion proposes)",
		headers...)
	for i, code := range d.Codes {
		row := []string{code}
		for s := range d.Scales {
			row = append(row, report.F(d.Rates[s][i]))
		}
		t.AddRow(row...)
	}
	in0 := []string{"In(12,0)"}
	in2 := []string{"In(12,2)"}
	for s := range d.Scales {
		in0 = append(in0, report.F(d.In0[s]))
		in2 = append(in2, report.F(d.In2[s]))
	}
	t.AddRow(in0...)
	t.AddRow(in2...)
	t.AddNote("larger data amortizes overheads and raises every code's rate, but In(12,0) improves only")
	t.AddNote("mildly: the dispersion is structural (serial fractions, scalar codes), so stability indeed")
	t.AddNote("\"focuses on the class of codes well matched to the system\", as the paper argues")
	return t.Render(w)
}
