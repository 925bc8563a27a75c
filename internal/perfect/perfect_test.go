package perfect

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func suite(t *testing.T) []*Profile {
	t.Helper()
	s, err := NewSuite(DefaultRates())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero target", what)
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Fatalf("%s = %.2f, want %.2f (±%.0f%%)", what, got, want, tol*100)
	}
}

func TestSuiteHasThirteenCodes(t *testing.T) {
	s := suite(t)
	if len(s) != 13 {
		t.Fatalf("suite has %d codes, want 13", len(s))
	}
	names := map[string]bool{}
	for _, p := range s {
		names[p.Name] = true
	}
	for _, n := range []string{"ADM", "ARC2D", "BDNA", "DYFESM", "FL052", "MDG",
		"MG3D", "OCEAN", "QCD", "SPEC77", "SPICE", "TRACK", "TRFD"} {
		if !names[n] {
			t.Fatalf("missing code %s", n)
		}
	}
}

// TestCalibrationReproducesTable3: the calibrated model must reproduce
// every published Table 3 column within tight tolerance.
func TestCalibrationReproducesTable3(t *testing.T) {
	r := DefaultRates()
	for _, p := range suite(t) {
		if p.Targets.AutoSeconds <= 0 {
			continue // SPICE: no automatable results
		}
		for _, c := range []struct {
			v    Variant
			want float64
		}{
			{KAP, p.Targets.KapSeconds},
			{Auto, p.Targets.AutoSeconds},
			{AutoNoSync, p.Targets.NoSyncSeconds},
			{AutoNoPref, p.Targets.NoPrefSeconds},
		} {
			got, err := p.Time(c.v, r)
			if err != nil {
				t.Fatalf("%s %v: %v", p.Name, c.v, err)
			}
			within(t, p.Name+" "+c.v.String(), got, c.want, 0.03)
		}
		mf, err := p.CedarMFLOPS(r)
		if err != nil {
			t.Fatal(err)
		}
		within(t, p.Name+" MFLOPS", mf, p.Targets.MFLOPS, 0.05)
	}
}

// TestHandOptimizationsApproachTable4: the hand variants are mechanism
// predictions, not calibrations; they must land within 35% of the
// paper's measurements and always improve on the no-sync baseline.
func TestHandOptimizationsApproachTable4(t *testing.T) {
	r := DefaultRates()
	for _, p := range suite(t) {
		for i := range p.Hands {
			h := &p.Hands[i]
			got := p.HandTime(h, r)
			within(t, p.Name+" "+h.Name, got, h.TargetSeconds, 0.35)
			if p.Targets.AutoSeconds > 0 {
				base, _ := p.Time(AutoNoSync, r)
				if got >= base {
					t.Fatalf("%s %s: hand time %.1f not better than no-sync %.1f",
						p.Name, h.Name, got, base)
				}
			}
		}
	}
}

// TestTable4Improvements: the paper reports hand improvements over the
// "automatable w/ prefetch, w/o Cedar synchronization" baseline: ARC2D
// 2.1x, BDNA 1.7x, TRFD 2.8x, QCD 11.4x. Check sign and rough magnitude.
func TestTable4Improvements(t *testing.T) {
	r := DefaultRates()
	s := suite(t)
	want := map[string]float64{"ARC2D": 2.1, "BDNA": 1.7, "TRFD": 2.8, "QCD": 11.4}
	for name, imp := range want {
		p := ByName(s, name)
		base, err := p.Time(AutoNoSync, r)
		if err != nil {
			t.Fatal(err)
		}
		hand, err := p.Time(Hand, r)
		if err != nil {
			t.Fatal(err)
		}
		got := base / hand
		within(t, name+" hand improvement", got, imp, 0.45)
	}
}

func TestSerialDerivation(t *testing.T) {
	s := suite(t)
	adm := ByName(s, "ADM")
	// Serial = auto x improvement.
	within(t, "ADM serial", adm.SerialSeconds, 73*10.8, 0.01)
	ts, err := adm.Time(Serial, DefaultRates())
	if err != nil || ts != adm.SerialSeconds {
		t.Fatalf("Time(Serial) = %g, %v", ts, err)
	}
	imp, err := adm.Improvement(Auto, DefaultRates())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "ADM improvement", imp, 10.8, 0.03)
}

func TestSPICEHasNoAutoVariants(t *testing.T) {
	s := suite(t)
	sp := ByName(s, "SPICE")
	for _, v := range []Variant{Auto, AutoNoSync, AutoNoPref} {
		if _, err := sp.Time(v, DefaultRates()); !errors.Is(err, ErrNoVariant) {
			t.Fatalf("SPICE %v: err = %v, want ErrNoVariant", v, err)
		}
	}
	if _, err := sp.Time(KAP, DefaultRates()); err != nil {
		t.Fatalf("SPICE KAP: %v", err)
	}
	if _, err := sp.Time(Hand, DefaultRates()); err != nil {
		t.Fatalf("SPICE hand: %v", err)
	}
}

func TestVariantsWithoutHand(t *testing.T) {
	s := suite(t)
	adm := ByName(s, "ADM")
	if _, err := adm.Time(Hand, DefaultRates()); !errors.Is(err, ErrNoVariant) {
		t.Fatal("ADM should have no hand variant")
	}
}

// TestMechanismDirections: varying a machine rate changes the variants
// the mechanism predicts it should change, and only those.
func TestMechanismDirections(t *testing.T) {
	base := DefaultRates()
	slow := base
	slow.ClaimSlowSeconds = 60e-6 // worse non-Cedar-sync claims
	s1, err := NewSuite(base)
	if err != nil {
		t.Fatal(err)
	}
	ocean1 := ByName(s1, "OCEAN")
	t1, _ := ocean1.Time(AutoNoSync, base)

	// Same profile, same calibration, evaluated under worse claims.
	t2, _ := ocean1.Time(AutoNoSync, slow)
	if t2 <= t1 {
		t.Fatalf("doubling the slow claim cost did not slow AutoNoSync (%.1f vs %.1f)", t2, t1)
	}
	tAuto1, _ := ocean1.Time(Auto, base)
	tAuto2, _ := ocean1.Time(Auto, slow)
	if math.Abs(tAuto1-tAuto2) > 1e-9 {
		t.Fatal("slow-claim cost leaked into the Cedar-sync variant")
	}
}

func TestPrefetchSensitivityOrdering(t *testing.T) {
	// DYFESM is the most prefetch-dependent code (49% slowdown), TRACK
	// and MDG the least (0%).
	r := DefaultRates()
	s := suite(t)
	frac := func(name string) float64 {
		p := ByName(s, name)
		ns, _ := p.Time(AutoNoSync, r)
		np, _ := p.Time(AutoNoPref, r)
		return (np - ns) / ns
	}
	if frac("DYFESM") < 0.4 {
		t.Fatalf("DYFESM no-prefetch slowdown = %.2f, want ~0.49", frac("DYFESM"))
	}
	if frac("TRACK") > 0.02 || frac("MDG") > 0.02 {
		t.Fatalf("TRACK/MDG should be prefetch-insensitive: %.2f %.2f", frac("TRACK"), frac("MDG"))
	}
}

func TestTRFDVMStory(t *testing.T) {
	// The shared-memory hand version spends a large fraction of its
	// time in VM activity; the distributed version removes it.
	r := DefaultRates()
	s := suite(t)
	trfd := ByName(s, "TRFD")
	var shared, dist float64
	for i := range trfd.Hands {
		h := &trfd.Hands[i]
		if h.RemoveTLBFaults {
			dist = trfd.HandTime(h, r)
		} else {
			shared = trfd.HandTime(h, r)
		}
	}
	if shared == 0 || dist == 0 {
		t.Fatal("TRFD hand variants missing")
	}
	vmFrac := (shared - dist) / shared
	if vmFrac < 0.25 || vmFrac > 0.6 {
		t.Fatalf("TRFD VM fraction = %.2f, paper reports ~50%%", vmFrac)
	}
}

func TestUncalibratedProfileErrors(t *testing.T) {
	p := &Profile{Name: "X"}
	if _, err := p.Time(Auto, DefaultRates()); err == nil {
		t.Fatal("uncalibrated profile did not error")
	}
}

func TestByNameMissing(t *testing.T) {
	if ByName(suite(t), "NOPE") != nil {
		t.Fatal("ByName invented a profile")
	}
}

func TestSuite(t *testing.T) {
	s, err := Suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 13 {
		t.Fatal("Suite wrong size")
	}
}

// TestNewSuiteRejectsBadRates: a vector rate that is zero, negative or
// not finite, or a cost that is negative or not finite, fails NewSuite
// with an error naming the field; a zero cost is a valid what-if.
func TestNewSuiteRejectsBadRates(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Rates, float64)
		bad   []float64
	}{
		{"VectorGlobalPref", func(r *Rates, v float64) { r.VectorGlobalPref = v }, []float64{0, -1, math.NaN(), math.Inf(1)}},
		{"VectorGlobalNoPref", func(r *Rates, v float64) { r.VectorGlobalNoPref = v }, []float64{0}},
		{"VectorLocal", func(r *Rates, v float64) { r.VectorLocal = v }, []float64{0}},
		{"ClaimSlowSeconds", func(r *Rates, v float64) { r.ClaimSlowSeconds = v }, []float64{-1e-6, math.NaN(), math.Inf(1)}},
		{"RawIOSecPerWord", func(r *Rates, v float64) { r.RawIOSecPerWord = v }, []float64{-1e-6}},
	} {
		for _, v := range tc.bad {
			r := DefaultRates()
			tc.set(&r, v)
			if _, err := NewSuite(r); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %g: error %v, want one naming the field", tc.field, v, err)
			}
		}
	}
	zero := DefaultRates()
	zero.ClaimSlowSeconds, zero.BarrierSeconds, zero.TLBMissSeconds = 0, 0, 0
	if _, err := NewSuite(zero); err != nil {
		t.Fatalf("zero costs: %v", err)
	}
}
