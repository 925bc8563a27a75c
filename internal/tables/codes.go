package tables

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/perfect"
	"repro/internal/report"
)

// CodesData is the per-code view of the Perfect models: each code's
// calibrated decomposition, its time under every variant and its
// hand-optimized variants, under one set of rates.
type CodesData struct {
	Rates perfect.Rates
	Codes []*perfect.Profile
}

// RunCodes calibrates the Perfect models under r and selects the code
// named, or all thirteen when code is empty; an unknown name is an
// error that lists the known ones.
func RunCodes(r perfect.Rates, code string) (*CodesData, error) {
	suite, err := perfect.NewSuite(r)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, p := range suite {
		if p.Name == code {
			return &CodesData{r, []*perfect.Profile{p}}, nil
		}
		names = append(names, p.Name)
	}
	if code == "" {
		return &CodesData{r, suite}, nil
	}
	return nil, fmt.Errorf("unknown code %q (known: %s)", code, strings.Join(names, ", "))
}

// Render writes the codes in suite order, a blank line between two.
func (d *CodesData) Render(w io.Writer) error {
	var b strings.Builder
	for i, p := range d.Codes {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s: serial %.1f s, %.0f Mflop (%.2f MFLOPS scalar)\n",
			p.Name, p.SerialSeconds, p.Mflop, p.ScalarMFLOPS)
		fmt.Fprintf(&b, "decomposition: serial residual %.1f%%, prefetch-sensitive %.0f Mflop, %.0f claims, P_eff %.0f\n\n",
			p.SerialFrac*100, p.GlobalVectorMflop, p.Claims, p.EffParallelism)
		t := report.NewTable("variants", "variant", "time (s)", "improvement")
		for _, v := range []perfect.Variant{perfect.Serial, perfect.KAP, perfect.Auto,
			perfect.AutoNoSync, perfect.AutoNoPref, perfect.Hand} {
			sec, err := p.Time(v, d.Rates)
			if errors.Is(err, perfect.ErrNoVariant) {
				t.AddRow(v.String(), "NA", "")
				continue
			}
			if err != nil {
				return err
			}
			t.AddRow(v.String(), report.F(sec), report.F(p.SerialSeconds/sec))
		}
		t.Render(&b) // a strings.Builder write cannot fail
		for j := range p.Hands {
			h := &p.Hands[j]
			fmt.Fprintf(&b, "hand variant %-16s modeled %6.1f s (paper %6.1f s): %s\n",
				h.Name, p.HandTime(h, d.Rates), h.TargetSeconds, h.Description)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
