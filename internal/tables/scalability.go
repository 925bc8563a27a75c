package tables

import (
	"fmt"
	"io"

	"repro/internal/compare"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/methodology"
	"repro/internal/report"
	"repro/internal/workload"
)

// ScalabilityData is the Section 4.3 study: the conjugate-gradient
// solver on Cedar over processor counts and problem sizes, and the
// banded matrix-vector product on the CM-5 model, both classified by the
// PPT4 criteria.
type ScalabilityData struct {
	CedarPoints  []methodology.ScalPoint
	CedarVerdict methodology.PPT4Report
	// Baseline1CE is the single-CE CG rate used for efficiency.
	Baseline1CE float64

	CM5Points []methodology.ScalPoint
	// CM5Verdicts holds one PPT4 evaluation per matrix bandwidth (the
	// two computations are judged separately, as in the paper).
	CM5Verdicts map[int]methodology.PPT4Report
}

// cgMachine builds a machine with the given total CE count (whole
// clusters of 8 where possible, a partial cluster otherwise).
func cgMachine(ces int) (*core.Machine, error) {
	cfg := core.DefaultConfig()
	if ces >= 8 {
		if ces%8 != 0 {
			return nil, fmt.Errorf("tables: %d CEs not a multiple of 8", ces)
		}
		cfg.Clusters = ces / 8
	} else {
		cfg.Clusters = 1
		cfg.Cluster.CEs = ces
	}
	return core.New(cfg)
}

// cgRate runs the cg workload and returns MFLOPS.
func cgRate(ces, n, iters int) (float64, error) {
	m, err := cgMachine(ces)
	if err != nil {
		return 0, err
	}
	res, err := kernels.Run("cg", m, workload.Params{Size: n, Iterations: iters, Prefetch: true}, workload.Attachments{})
	if err != nil {
		return 0, err
	}
	return res.MFLOPS, nil
}

// RunScalability measures CG on Cedar for the given processor counts and
// sizes (quick selects a reduced grid) and evaluates the CM-5 model on
// the banded product. Efficiency is speedup over a one-CE run of the
// same code: E = rate_P / (P * rate_1).
func RunScalability(quick bool) (*ScalabilityData, error) {
	d := &ScalabilityData{}
	ps := []int{2, 8, 32}
	ns := []int{1024, 4096, 16384, 65536}
	iters := 4
	if quick {
		ns = []int{1024, 4096, 16384}
		iters = 3
	}
	base, err := cgRate(1, 8192, iters)
	if err != nil {
		return nil, fmt.Errorf("scalability baseline: %w", err)
	}
	d.Baseline1CE = base
	for _, p := range ps {
		for _, n := range ns {
			if n%(p*kernels.StripLen) != 0 {
				continue
			}
			rate, err := cgRate(p, n, iters)
			if err != nil {
				return nil, fmt.Errorf("scalability P=%d N=%d: %w", p, n, err)
			}
			d.CedarPoints = append(d.CedarPoints, methodology.ScalPoint{
				P: p, N: n, MFLOPS: rate, Efficiency: rate / (float64(p) * base),
			})
		}
	}
	d.CedarVerdict = methodology.PPT4(d.CedarPoints)

	d.CM5Verdicts = map[int]methodology.PPT4Report{}
	for _, bw := range []int{3, 11} {
		var pts []methodology.ScalPoint
		for _, p := range []int{32, 256, 512} {
			cm5 := compare.DefaultCM5(p)
			for _, n := range []int{16384, 65536, 262144} {
				pts = append(pts, methodology.ScalPoint{
					P: p, N: n,
					MFLOPS:     cm5.MatVecMFLOPS(n, bw),
					Efficiency: cm5.Efficiency(n, bw),
				})
			}
		}
		d.CM5Points = append(d.CM5Points, pts...)
		d.CM5Verdicts[bw] = methodology.PPT4(pts)
	}
	return d, nil
}

// Render writes the study.
func (d *ScalabilityData) Render(w io.Writer) error {
	t := report.NewTable(
		fmt.Sprintf("Section 4.3 scalability: CG on Cedar (efficiency vs 1 CE at %.1f MFLOPS)", d.Baseline1CE),
		"P", "N", "MFLOPS", "efficiency", "band")
	for _, p := range d.CedarPoints {
		t.AddRow(fmt.Sprintf("%d", p.P), fmt.Sprintf("%d", p.N),
			report.F(p.MFLOPS), report.F(p.Efficiency),
			methodology.Classify(p.Efficiency, p.P).String())
	}
	t.AddNote(fmt.Sprintf("verdict: scalable-high=%v scalable-intermediate=%v (paper: high for N over ~10-16K, intermediate below)",
		d.CedarVerdict.ScalableHigh, d.CedarVerdict.ScalableIntermediate))
	if err := t.Render(w); err != nil {
		return err
	}

	t2 := report.NewTable(
		"Section 4.3: banded matrix-vector product on the CM-5 model (no FP accelerators)",
		"P", "BW", "N", "MFLOPS", "efficiency", "band")
	i := 0
	for _, bw := range []int{3, 11} {
		for _, p := range []int{32, 256, 512} {
			for _, n := range []int{16384, 65536, 262144} {
				pt := d.CM5Points[i]
				i++
				t2.AddRow(fmt.Sprintf("%d", p), fmt.Sprintf("%d", bw), fmt.Sprintf("%d", n),
					report.F(pt.MFLOPS), report.F(pt.Efficiency),
					methodology.Classify(pt.Efficiency, pt.P).String())
			}
		}
	}
	for _, bw := range []int{3, 11} {
		v := d.CM5Verdicts[bw]
		t2.AddNote(fmt.Sprintf("BW=%d verdict: scalable-high=%v scalable-intermediate=%v", bw, v.ScalableHigh, v.ScalableIntermediate))
	}
	t2.AddNote("paper: intermediate; 28-32 MFLOPS at BW=3, 58-67 at BW=11 on 32 procs")
	return t2.Render(w)
}
