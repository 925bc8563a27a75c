package kernels

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Tests for the machine-level attribution views (core/attr.go and the
// coded flame rows): table shapes, the per-interval conservation the CSV
// export inherits from the sampler contract, and the CG phase stacks.

func TestCPIStackShape(t *testing.T) {
	m := machineAt(1, sim.ModeWakeCached)
	if _, err := Run("vl", m, attrOptions("vl", m), workload.Attachments{}); err != nil {
		t.Fatal(err)
	}
	st := m.CPIStack()
	if want := m.NumCEs() + 1; st.Rows() != want {
		t.Fatalf("CPI stack rows = %d, want %d (CEs + machine rollup)", st.Rows(), want)
	}
	var buf bytes.Buffer
	if err := st.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cluster0/ce0", "machine", "busy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered CPI stack missing %q:\n%s", want, out)
		}
	}
}

// TestPhaseCPIStackCG: the CG solver marks its three barrier-separated
// phases, so the per-phase stack must carry one row per solver phase and
// its grand total must equal the whole sampled series (phase rows
// partition the intervals).
func TestPhaseCPIStackCG(t *testing.T) {
	m := machineAt(1, sim.ModeWakeCached)
	s := m.NewSampler(500)
	o := attrOptions("cg", m)
	if _, err := Run("cg", m, o, workload.Attachments{Phases: s}); err != nil {
		t.Fatal(err)
	}
	s.Final()
	st := m.PhaseCPIStack(s)
	var buf bytes.Buffer
	if err := st.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, phase := range []string{"matvec", "update", "direction"} {
		if !strings.Contains(out, phase) {
			t.Fatalf("per-phase CPI stack missing solver phase %q:\n%s", phase, out)
		}
	}
}

// TestWriteAttrCSV: the CSV export is the interval series verbatim — one
// row per (interval, CE) whose bucket deltas sum to the interval length
// (the conservation invariant holds interval by interval, because the
// engine settles skip accounting at every sample boundary).
func TestWriteAttrCSV(t *testing.T) {
	m := machineAt(1, sim.ModeWakeCached)
	s := m.NewSampler(500)
	o := attrOptions("cg", m)
	if _, err := Run("cg", m, o, workload.Attachments{Phases: s}); err != nil {
		t.Fatal(err)
	}
	s.Final()
	var buf bytes.Buffer
	if err := m.WriteAttrCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	wantHeader := "from,to,phase,unit," + strings.Join(isa.AcctNames(), ",")
	if lines[0] != wantHeader {
		t.Fatalf("CSV header = %q, want %q", lines[0], wantHeader)
	}
	nIvs := len(s.Intervals())
	if want := 1 + nIvs*m.NumCEs(); len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d (header + %d intervals x %d CEs)",
			len(lines), want, nIvs, m.NumCEs())
	}
	sawPhase := false
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 4+int(isa.NumBuckets) {
			t.Fatalf("CSV row has %d fields, want %d: %q", len(f), 4+isa.NumBuckets, line)
		}
		from, _ := strconv.ParseInt(f[0], 10, 64)
		to, _ := strconv.ParseInt(f[1], 10, 64)
		if f[2] != "" {
			sawPhase = true
		}
		var sum int64
		for _, v := range f[4:] {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("bad bucket cell %q in %q: %v", v, line, err)
			}
			sum += n
		}
		if sum != to-from {
			t.Fatalf("row %q: bucket deltas sum to %d over a %d-cycle interval", line, sum, to-from)
		}
	}
	if !sawPhase {
		t.Fatal("no CSV row carries a phase name despite CG's solver-phase marks")
	}
}

// TestMachineFlameCodedCells: the CE rows of the activity summary are
// coded with cycle-bucket characters, never utilization shades.
func TestMachineFlameCodedCells(t *testing.T) {
	m := machineAt(1, sim.ModeWakeCached)
	s := m.NewSampler(500)
	if _, err := Run("vl", m, attrOptions("vl", m), workload.Attachments{}); err != nil {
		t.Fatal(err)
	}
	s.Final()
	var buf bytes.Buffer
	if err := m.MachineFlame(s).Render(&buf); err != nil {
		t.Fatal(err)
	}
	legal := map[byte]bool{}
	for b := isa.Bucket(0); b < isa.NumBuckets; b++ {
		legal[b.Code()] = true
	}
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "cluster0/ce") {
			continue
		}
		found = true
		open := strings.IndexByte(line, '|')
		close := strings.LastIndexByte(line, '|')
		if open < 0 || close <= open+1 {
			t.Fatalf("CE flame row has no cells: %q", line)
		}
		for i := open + 1; i < close; i++ {
			if !legal[line[i]] {
				t.Fatalf("CE flame cell %q is not a cycle-bucket code in %q", line[i], line)
			}
		}
	}
	if !found {
		t.Fatal("no CE rows in the rendered flame summary")
	}
}
