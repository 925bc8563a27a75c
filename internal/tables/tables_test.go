package tables

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/perfect"
	"repro/internal/workload"
)

// TestTable1ShapeSmall regenerates Table 1 at a reduced size and checks
// the paper's qualitative content: column ordering, the ~14.5 MFLOPS
// no-prefetch cluster rate, near-linear GM/cache scaling, and prefetch
// improvement factors.
func TestTable1ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	d, err := table1N64()
	if err != nil {
		t.Fatal(err)
	}
	for cl := 1; cl <= 4; cl++ {
		nopref := d.Get(workload.GMNoPrefetch, cl)
		pref := d.Get(workload.GMPrefetch, cl)
		cache := d.Get(workload.GMCache, cl)
		if !(cache > pref && pref > nopref) {
			t.Fatalf("clusters=%d: ordering violated: %f %f %f", cl, nopref, pref, cache)
		}
	}
	if v := d.Get(workload.GMNoPrefetch, 1); v < 10 || v > 18 {
		t.Fatalf("GM/no-pref 1 cluster = %.1f, want ~14.5", v)
	}
	// GM/cache scales nearly linearly with clusters.
	scale := d.Get(workload.GMCache, 4) / d.Get(workload.GMCache, 1)
	if scale < 3.0 {
		t.Fatalf("GM/cache 4-cluster scaling = %.2f, want ~3.5-4", scale)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GM/cache") {
		t.Fatal("render missing mode rows")
	}
}

// TestTable2ShapeSmall: prefetching helps every kernel; latency and
// interarrival rise with processor count.
func TestTable2ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	d, err := table2Full()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(d.Rows))
	}
	for _, k := range []string{"TM", "CG", "VF", "RK"} {
		r8, ok8 := d.Get(k, 8)
		r32, ok32 := d.Get(k, 32)
		if !ok8 || !ok32 {
			t.Fatalf("%s rows missing", k)
		}
		if r8.Speedup <= 1.0 {
			t.Fatalf("%s at 8 CEs: prefetch speedup %.2f <= 1", k, r8.Speedup)
		}
		if r8.Latency < 8 {
			t.Fatalf("%s latency %.1f below the 8-cycle minimum", k, r8.Latency)
		}
		// Latency grows with machine width for the compiler-prefetched
		// kernels (RK's back-to-back 256-word block fires add a bursty
		// self-queueing component that dominates its small-width
		// latency; see EXPERIMENTS.md).
		if k != "RK" && r32.Latency < r8.Latency-1.5 {
			t.Fatalf("%s: latency fell from %.1f (8 CEs) to %.1f (32 CEs)", k, r8.Latency, r32.Latency)
		}
		if k != "RK" && r32.Interarrival <= r8.Interarrival {
			t.Fatalf("%s: interarrival did not grow with contention: %.2f -> %.2f",
				k, r8.Interarrival, r32.Interarrival)
		}
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	d, err := RunTable3(perfect.DefaultRates())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 13 {
		t.Fatalf("%d rows", len(d.Rows))
	}
	adm, ok := d.Get("ADM")
	if !ok || !adm.HasAuto {
		t.Fatal("ADM row missing")
	}
	if math.Abs(adm.AutoSeconds-73) > 3 {
		t.Fatalf("ADM auto = %.1f, want 73", adm.AutoSeconds)
	}
	if adm.NoSyncSlowdown < 0.08 || adm.NoSyncSlowdown > 0.14 {
		t.Fatalf("ADM no-sync slowdown = %.2f, want ~11%%", adm.NoSyncSlowdown)
	}
	spice, _ := d.Get("SPICE")
	if spice.HasAuto {
		t.Fatal("SPICE should have no automatable results")
	}
	dyf, _ := d.Get("DYFESM")
	if dyf.NoPrefSlowdown < 0.4 {
		t.Fatalf("DYFESM no-prefetch slowdown = %.2f, want ~49%%", dyf.NoPrefSlowdown)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NA") {
		t.Fatal("SPICE NA cells missing")
	}
	if !strings.Contains(buf.String(), "(1:") {
		t.Fatal("inverse ratio formatting missing")
	}
}

func TestTable4RowsAndImprovements(t *testing.T) {
	d, err := RunTable4(perfect.DefaultRates())
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range []string{"ARC2D", "BDNA", "TRFD", "QCD", "FL052", "DYFESM", "SPICE"} {
		r, ok := d.Get(code)
		if !ok {
			t.Fatalf("missing hand row for %s", code)
		}
		if r.Seconds <= 0 {
			t.Fatalf("%s: non-positive time", code)
		}
		if r.Paper > 0 {
			ratio := r.Seconds / r.Paper
			if ratio < 0.6 || ratio > 1.4 {
				t.Fatalf("%s: modeled %.1f vs paper %.1f (off %.0f%%)", code, r.Seconds, r.Paper, (ratio-1)*100)
			}
		}
	}
	qcd, _ := d.Get("QCD")
	if qcd.Improvement < 8 {
		t.Fatalf("QCD hand improvement = %.1f, want ~11.4", qcd.Improvement)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable5Verdicts(t *testing.T) {
	d := RunTable5()
	if len(d.Rows) != 3 {
		t.Fatalf("%d rows", len(d.Rows))
	}
	ymp, ok := d.Get("Cray YMP-8")
	if !ok {
		t.Fatal("YMP row missing")
	}
	if ymp.PassPPT2 {
		t.Fatal("YMP must fail PPT2")
	}
	if ymp.ExceptionsNeeded != 6 {
		t.Fatalf("YMP exceptions = %d, want 6", ymp.ExceptionsNeeded)
	}
	cedar, _ := d.Get("Cedar")
	if !cedar.PassPPT2 {
		t.Fatal("Cedar must pass PPT2")
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTable6Counts(t *testing.T) {
	d := RunTable6()
	if d.Cedar.High != 1 || d.Cedar.Intermediate != 9 || d.Cedar.Unacceptable != 3 {
		t.Fatalf("Cedar bands %+v", d.Cedar)
	}
	if d.YMP.High != 0 || d.YMP.Intermediate != 6 || d.YMP.Unacceptable != 7 {
		t.Fatalf("YMP bands %+v", d.YMP)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFigure3Counts(t *testing.T) {
	d := RunFigure3()
	if d.CedarUnacceptable != 0 {
		t.Fatal("Cedar manual has unacceptable codes")
	}
	if d.YMPUnacceptable != 1 {
		t.Fatal("YMP manual should have one unacceptable code")
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "TRFD") {
		t.Fatal("figure output incomplete")
	}
}

// TestPPT5Quick runs the scaled-machine extension at reduced size: the
// cache-blocked rank-64 kernel must hold its per-CE rate across scales
// while the deeper network keeps the minimal latency at 8 cycles up to
// 64 ports.
func TestPPT5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	d, err := ppt5Quick()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Points) != 2 {
		t.Fatalf("%d points", len(d.Points))
	}
	for _, p := range d.Points {
		if p.NetStages != 2 || p.MinLatency != 8 {
			t.Fatalf("%d clusters: stages=%d latency=%d, want 2/8", p.Clusters, p.NetStages, p.MinLatency)
		}
	}
	if d.RKStability < 0.5 {
		t.Fatalf("cache-blocked RK per-CE stability = %.2f across 4-8 clusters, want >= 0.5", d.RKStability)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestPerProcessorEquivalence checks the paper's closing absolute
// comparison: "the per-processor MFLOPS of the two systems on these
// problems are roughly equivalent" — 32-CE Cedar CG versus the
// 32-processor CM-5 banded product.
func TestPerProcessorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	d, err := scalQuick()
	if err != nil {
		t.Fatal(err)
	}
	var cedarPer float64
	for _, p := range d.CedarPoints {
		if p.P == 32 {
			cedarPer = p.MFLOPS / 32
		}
	}
	var cm5Per float64
	for _, p := range d.CM5Points {
		if p.P == 32 {
			cm5Per = p.MFLOPS / 32
		}
	}
	if cedarPer == 0 || cm5Per == 0 {
		t.Fatal("missing 32-processor points")
	}
	ratio := cedarPer / cm5Per
	if ratio < 1.0/3 || ratio > 3 {
		t.Fatalf("per-processor rates not roughly equivalent: Cedar %.2f vs CM-5 %.2f MFLOPS/proc", cedarPer, cm5Per)
	}
}

// TestSizeStability: rates rise monotonically with problem scale and
// raw instability improves, while two-exclusion instability stays near
// the workstation level — the structural-dispersion finding.
func TestSizeStability(t *testing.T) {
	d, err := RunSizeStability(perfect.DefaultRates())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Codes) != 12 {
		t.Fatalf("%d codes (SPICE has no automatable variant)", len(d.Codes))
	}
	for i := range d.Codes {
		for s := 1; s < len(d.Scales); s++ {
			if d.Rates[s][i] <= d.Rates[s-1][i] {
				t.Fatalf("%s: rate fell from %.2f to %.2f as the problem grew",
					d.Codes[i], d.Rates[s-1][i], d.Rates[s][i])
			}
		}
	}
	if d.In0[len(d.In0)-1] >= d.In0[0] {
		t.Fatalf("In(12,0) did not improve with size: %v", d.In0)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestScalabilityQuick reproduces the Section 4.3 findings on the
// reduced grid: Cedar crosses into the high band as N grows at 32 CEs;
// the CM-5 stays intermediate at bandwidth 11.
func TestScalabilityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	d, err := scalQuick()
	if err != nil {
		t.Fatal(err)
	}
	if !d.CedarVerdict.ScalableHigh {
		t.Fatalf("Cedar verdict: %+v", d.CedarVerdict)
	}
	// At 32 CEs, efficiency must grow with N (the crossover direction).
	var small, large float64
	for _, p := range d.CedarPoints {
		if p.P == 32 && p.N == 1024 {
			small = p.Efficiency
		}
		if p.P == 32 && p.N >= 16384 {
			large = p.Efficiency
		}
	}
	if large <= small {
		t.Fatalf("32-CE efficiency did not grow with N: %.2f -> %.2f", small, large)
	}
	if v := d.CM5Verdicts[11]; v.ScalableHigh || !v.ScalableIntermediate {
		t.Fatalf("CM-5 BW=11 verdict: %+v", v)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf); err != nil {
		t.Fatal(err)
	}
}
