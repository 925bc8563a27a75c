// Package perfect models the Perfect Benchmarks® study of Sections 3.3
// and 4.2 of the paper.
//
// The original study ran thirteen Fortran codes on the real machine in
// four forms: compiled by the retargeted KAP restructurer, manually
// transformed with "automatable" techniques, and the automatable form
// with Cedar synchronization or prefetching disabled; several codes were
// further hand-optimized with algorithmic knowledge (Table 4). We do not
// have the Fortran sources or a Fortran environment, so each code is
// modeled as a calibrated execution profile — the substitution recorded
// in DESIGN.md.
//
// The model is mechanism-based: a code's serial work is decomposed into a
// serial residual and parallel work split across vector-on-cluster-data,
// vector-on-global-data (prefetch-sensitive) and scalar components,
// executed at machine rates measured from this repository's cycle-level
// simulator, plus scheduling overheads (loop startup, iteration claims
// with or without the Cedar synchronization instructions), barriers,
// file I/O (formatted or raw) and cross-cluster TLB-miss faults, the
// last two priced by the model's own Rates. The published times of
// Table 3 are calibration targets: a small solver derives the
// decomposition from them once, and the variant deltas then follow from
// the mechanisms. Hand optimizations are expressed as the paper
// describes them — BDNA switches formatted I/O to raw transfer, QCD
// parallelizes its random-number generator, ARC2D eliminates redundant
// computation and distributes data, FL052 restructures its multicluster
// barriers, TRFD is rebuilt around cache-blocked kernels and then
// distributed to defeat its TLB-fault pathology — and the resulting
// times are compared against Table 4 in the tests and EXPERIMENTS.md.
package perfect

import (
	"fmt"
	"math"
)

// Variant selects one of the measured forms of a code.
type Variant int

// The measured forms, in Table 3/4 order.
const (
	// Serial is the uniprocessor scalar baseline all improvements are
	// relative to.
	Serial Variant = iota
	// KAP is the output of the retargeted 1988 KAP restructurer.
	KAP
	// Auto is the manually applied but automatable restructuring
	// (array privatization, parallel reductions, induction-variable
	// substitution, runtime dependence tests, balanced stripmining...).
	Auto
	// AutoNoSync is Auto with Cedar synchronization instructions not
	// used for loop self-scheduling (30 µs iteration fetches).
	AutoNoSync
	// AutoNoPref is AutoNoSync with compiler-generated prefetch also
	// disabled (the paper reports this slowdown relative to AutoNoSync).
	AutoNoPref
	// Hand is the algorithmically hand-optimized version (Table 4 and
	// the Section 4.2 text; not available for every code).
	Hand
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Serial:
		return "serial"
	case KAP:
		return "kap"
	case Auto:
		return "automatable"
	case AutoNoSync:
		return "auto-nosync"
	case AutoNoPref:
		return "auto-nopref"
	case Hand:
		return "hand"
	}
	return "unknown"
}

// Rates are the machine execution rates the model runs against, in
// MFLOPS per CE. Defaults come from this repository's simulated kernels
// (see DefaultRates) and a test asserts they track the simulator.
type Rates struct {
	// VectorLocal is vector work on cluster memory through the cache.
	VectorLocal float64
	// VectorGlobalPref is vector work on global memory with prefetch.
	VectorGlobalPref float64
	// VectorGlobalNoPref is the same without prefetch (bounded by two
	// outstanding requests over a 13-cycle latency).
	VectorGlobalNoPref float64
	// ClaimFastSeconds / ClaimSlowSeconds are per-iteration fetch costs
	// with and without Cedar synchronization.
	ClaimFastSeconds float64
	ClaimSlowSeconds float64
	// StartupSeconds is the machine-wide loop startup cost.
	StartupSeconds float64
	// BarrierSeconds is one multicluster barrier.
	BarrierSeconds float64
	// TLBMissSeconds is one cross-cluster first-touch fault: a kernel
	// trap plus a fetch of the PTE that already exists in global memory.
	TLBMissSeconds float64
	// FormattedIOSecPerWord / RawIOSecPerWord are the file-system costs
	// per word with and without formatted conversion.
	FormattedIOSecPerWord float64
	RawIOSecPerWord       float64
}

// DefaultRates returns rates consistent with the simulator and the
// paper's constants.
func DefaultRates() Rates {
	return Rates{
		VectorLocal:           9.0,  // warm cluster-cache streams (sim: ~9-11)
		VectorGlobalPref:      6.0,  // prefetched global streams at 8-16 CEs
		VectorGlobalNoPref:    1.81, // 2 words / 13 cycles, 2 flops per word
		ClaimFastSeconds:      5e-6,
		ClaimSlowSeconds:      30e-6,
		StartupSeconds:        90e-6,
		BarrierSeconds:        200e-6,
		TLBMissSeconds:        500e-6,
		FormattedIOSecPerWord: 9.6e-6,
		RawIOSecPerWord:       0.6e-6,
	}
}

// check rejects rates the models cannot run under: a vector rate
// divides work, so it must be positive and finite; a cost must be
// non-negative and finite, and zero is a valid what-if.
func (r Rates) check() error {
	type field struct {
		name string
		v    float64
	}
	for _, f := range []field{{"VectorLocal", r.VectorLocal}, {"VectorGlobalPref", r.VectorGlobalPref},
		{"VectorGlobalNoPref", r.VectorGlobalNoPref}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("perfect: %s = %g: a vector MFLOPS rate must be positive and finite", f.name, f.v)
		}
	}
	for _, f := range []field{{"ClaimFastSeconds", r.ClaimFastSeconds}, {"ClaimSlowSeconds", r.ClaimSlowSeconds},
		{"StartupSeconds", r.StartupSeconds}, {"BarrierSeconds", r.BarrierSeconds}, {"TLBMissSeconds", r.TLBMissSeconds},
		{"FormattedIOSecPerWord", r.FormattedIOSecPerWord}, {"RawIOSecPerWord", r.RawIOSecPerWord}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("perfect: %s = %g: a cost must be non-negative and finite", f.name, f.v)
		}
	}
	return nil
}

// Targets holds the published measurements a profile is calibrated to
// (Table 3; seconds). Zero AutoSeconds marks a code with no automatable
// results (SPICE).
type Targets struct {
	KapSeconds      float64
	KapImprovement  float64
	AutoSeconds     float64
	AutoImprovement float64
	NoSyncSeconds   float64
	NoPrefSeconds   float64
	MFLOPS          float64 // Cedar MFLOPS of the automatable version
}

// HandSpec describes a hand optimization in terms of its mechanisms.
type HandSpec struct {
	// Name labels the variant; TargetSeconds is the paper's measured
	// time for it (Table 4 or the Section 4.2 text), recorded for
	// comparison in EXPERIMENTS.md.
	Name          string
	TargetSeconds float64
	// Description summarizes the change, from the paper.
	Description string
	// Parallelism overrides the effective parallelism (0 = unchanged) —
	// e.g. QCD's parallel random-number generator lets the whole
	// machine participate.
	Parallelism float64
	// WorkFactor scales the floating-point work (ARC2D's elimination of
	// unnecessary computation; 1 = unchanged).
	WorkFactor float64
	// SerialFrac overrides the serial-residual fraction (QCD's parallel
	// random-number generator; 0 = unchanged).
	SerialFrac float64
	// MoveGlobalVectorLocal moves the prefetch-sensitive global vector
	// work into cluster memory (aggressive data distribution).
	MoveGlobalVectorLocal bool
	// VectorEfficiency overrides vEff (reshaped data structures,
	// hand-coded PFU assembler kernels; 0 = unchanged).
	VectorEfficiency float64
	// BarrierFactor scales the barrier count (FL052's restructuring;
	// 1 = unchanged).
	BarrierFactor float64
	// DropFormattedIO converts formatted I/O to raw transfers (BDNA).
	DropFormattedIO bool
	// TLBPages, when positive, adds the TRFD-style VM cost: each
	// cluster beyond the first takes one TLB-miss fault per page, and
	// RemoveTLBFaults marks the distributed-memory rewrite that
	// eliminates them.
	TLBPages        int
	RemoveTLBFaults bool
	// ScalarRateFactor scales the scalar rate (cache-blocked kernels
	// speeding up the residual; 1 = unchanged).
	ScalarRateFactor float64
}

// Profile is one Perfect code's calibrated model.
type Profile struct {
	// Name is the Perfect code name.
	Name string
	// Targets are the published values used for calibration and
	// recorded for comparison.
	Targets Targets

	// SerialSeconds and Mflop define the code's total work; derived
	// from Targets at construction.
	SerialSeconds float64
	Mflop         float64
	ScalarMFLOPS  float64

	// Structural choices (not fitted): the effective parallelism the
	// data sizes support, the scalar share of parallel work, the
	// vector efficiency, loop invocations, barriers, I/O.
	EffParallelism   float64
	KapParallelism   float64
	ScalarShare      float64 // fraction of parallel work that stays scalar
	VectorEfficiency float64
	LoopInvocations  float64
	Barriers         float64
	IOFormattedWords float64
	IORawWords       float64
	// IOEliminatedRawWords records raw-transfer volume the studied
	// version eliminated before measurement (MG3D's Table 3 footnote).
	// It is informational — never charged by calibration or Time, since
	// the published times were measured without this I/O — and feeds
	// the I/O-kernel models in internal/kernels.
	IOEliminatedRawWords float64
	ClustersUsed         int // clusters the automatable version runs on (4)
	// Hands lists the hand-optimized variants; Hands[0] is the Table 4
	// row (later entries are intermediate versions from the text).
	Hands []HandSpec

	// Calibrated decomposition (solved in Calibrate).
	SerialFrac        float64 // f: serial residual fraction of serial time
	KapSerialFrac     float64
	GlobalVectorMflop float64 // prefetch-sensitive vector work
	Claims            float64 // dynamic scheduling claims
	calibrated        bool
}

// Calibrate solves the profile's decomposition against its targets under
// the given rates. It must be called before Time; NewSuite returns
// calibrated profiles.
func (p *Profile) Calibrate(r Rates) error {
	t := p.Targets
	if t.AutoSeconds > 0 {
		p.SerialSeconds = t.AutoSeconds * t.AutoImprovement
	} else {
		p.SerialSeconds = t.KapSeconds * t.KapImprovement
	}
	p.Mflop = t.MFLOPS * p.autoOrKapSeconds()
	p.ScalarMFLOPS = p.Mflop / p.SerialSeconds

	if t.AutoSeconds > 0 {
		// Prefetch-sensitive work from the no-prefetch delta.
		dPref := t.NoPrefSeconds - t.NoSyncSeconds
		gap := 1/r.VectorGlobalNoPref - 1/r.VectorGlobalPref
		p.GlobalVectorMflop = math.Max(0, dPref*p.EffParallelism*p.VectorEfficiency/gap)
		// Claim volume from the no-sync delta.
		dSync := t.NoSyncSeconds - t.AutoSeconds
		p.Claims = math.Max(0, dSync*p.EffParallelism/(r.ClaimSlowSeconds-r.ClaimFastSeconds))
		// Serial residual from the automatable time.
		f, err := p.solveSerialFrac(r)
		if err != nil {
			return err
		}
		p.SerialFrac = f
	}
	// KAP residual from the KAP time (KAP work runs vectorized on its
	// limited parallelism, global data, prefetch on).
	fk := p.solveKapFrac(r)
	p.KapSerialFrac = fk
	p.calibrated = true
	return nil
}

func (p *Profile) autoOrKapSeconds() float64 {
	if p.Targets.AutoSeconds > 0 {
		return p.Targets.AutoSeconds
	}
	return p.Targets.KapSeconds
}

// parallelTime evaluates the parallel portion's execution time given the
// decomposition, a serial fraction f, and variant switches.
func (p *Profile) parallelTime(r Rates, f float64, prefetch, cedarSync bool,
	mflopFactor, scalarRateFactor, vEff float64, moveGlobalLocal bool, peff float64) float64 {
	u := (1 - f) * p.Mflop * mflopFactor
	uvg := math.Min(p.GlobalVectorMflop*mflopFactor, u)
	if moveGlobalLocal {
		uvg = 0
	}
	usc := p.ScalarShare * u
	uvl := math.Max(0, u-uvg-usc)

	rvg := r.VectorGlobalPref
	if !prefetch {
		rvg = r.VectorGlobalNoPref
	}
	claim := r.ClaimFastSeconds
	if !cedarSync {
		claim = r.ClaimSlowSeconds
	}
	tt := uvl/(peff*r.VectorLocal*vEff) +
		uvg/(peff*rvg*vEff) +
		usc/(peff*p.ScalarMFLOPS*scalarRateFactor) +
		p.Claims*claim/peff +
		p.LoopInvocations*r.StartupSeconds
	return tt
}

// overheads returns barrier and I/O time for a variant.
func (p *Profile) overheads(r Rates, barrierFactor float64, rawIO bool) float64 {
	io := p.IORawWords * r.RawIOSecPerWord
	if rawIO {
		io += p.IOFormattedWords * r.RawIOSecPerWord
	} else {
		io += p.IOFormattedWords * r.FormattedIOSecPerWord
	}
	return p.Barriers*barrierFactor*r.BarrierSeconds + io
}

// ErrNoVariant reports a variant the paper has no measurement for.
var ErrNoVariant = fmt.Errorf("perfect: variant not available for this code")

// Time returns the modeled execution time in seconds of the given
// variant under rates r.
func (p *Profile) Time(v Variant, r Rates) (float64, error) {
	if !p.calibrated {
		return 0, fmt.Errorf("perfect: %s not calibrated", p.Name)
	}
	noAuto := p.Targets.AutoSeconds <= 0
	switch v {
	case Serial:
		return p.SerialSeconds, nil
	case KAP:
		f := p.KapSerialFrac
		return f*p.SerialSeconds +
			(1-f)*p.Mflop/(p.KapParallelism*r.VectorGlobalPref*p.VectorEfficiency) +
			p.overheads(r, 1, false), nil
	case Auto:
		if noAuto {
			return 0, ErrNoVariant
		}
		return p.SerialFrac*p.SerialSeconds +
			p.parallelTime(r, p.SerialFrac, true, true, 1, 1, p.VectorEfficiency, false, p.EffParallelism) +
			p.overheads(r, 1, false), nil
	case AutoNoSync:
		if noAuto {
			return 0, ErrNoVariant
		}
		return p.SerialFrac*p.SerialSeconds +
			p.parallelTime(r, p.SerialFrac, true, false, 1, 1, p.VectorEfficiency, false, p.EffParallelism) +
			p.overheads(r, 1, false), nil
	case AutoNoPref:
		if noAuto {
			return 0, ErrNoVariant
		}
		return p.SerialFrac*p.SerialSeconds +
			p.parallelTime(r, p.SerialFrac, false, false, 1, 1, p.VectorEfficiency, false, p.EffParallelism) +
			p.overheads(r, 1, false), nil
	case Hand:
		if len(p.Hands) == 0 {
			return 0, ErrNoVariant
		}
		return p.HandTime(&p.Hands[0], r), nil
	}
	return 0, fmt.Errorf("perfect: unknown variant %d", v)
}

// HandTime evaluates a hand-optimized variant's mechanisms. Hand
// versions use prefetch but not Cedar synchronization, as the paper's
// footnote states.
func (p *Profile) HandTime(h *HandSpec, r Rates) float64 {
	f := p.SerialFrac
	if h.SerialFrac > 0 {
		f = h.SerialFrac
	}
	wf := h.WorkFactor
	if wf <= 0 {
		wf = 1
	}
	vEff := p.VectorEfficiency
	if h.VectorEfficiency > 0 {
		vEff = h.VectorEfficiency
	}
	srf := h.ScalarRateFactor
	if srf <= 0 {
		srf = 1
	}
	bf := h.BarrierFactor
	if bf <= 0 {
		bf = 1
	}
	peff := p.EffParallelism
	if h.Parallelism > 0 {
		peff = h.Parallelism
	}
	tt := f*p.SerialSeconds*wf/srf +
		p.parallelTime(r, f, true, false, wf, srf, vEff, h.MoveGlobalVectorLocal, peff) +
		p.overheads(r, bf, h.DropFormattedIO)
	if h.TLBPages > 0 && !h.RemoveTLBFaults {
		// Each cluster beyond the first faults once per page (the TRFD
		// multicluster TLB pathology).
		tt += float64(p.ClustersUsed-1) * float64(h.TLBPages) * r.TLBMissSeconds
	}
	return tt
}

// Improvement returns the speed improvement of variant v over the serial
// baseline.
func (p *Profile) Improvement(v Variant, r Rates) (float64, error) {
	tv, err := p.Time(v, r)
	if err != nil {
		return 0, err
	}
	return p.SerialSeconds / tv, nil
}

// CedarMFLOPS returns the modeled rate of the automatable version.
func (p *Profile) CedarMFLOPS(r Rates) (float64, error) {
	tv, err := p.Time(Auto, r)
	if err != nil {
		return 0, err
	}
	return p.Mflop / tv, nil
}

// solveSerialFrac finds f so that the Auto variant's modeled time equals
// the published automatable time, by bisection (the model is monotonic
// in f).
func (p *Profile) solveSerialFrac(r Rates) (float64, error) {
	target := p.Targets.AutoSeconds - p.overheads(r, 1, false)
	eval := func(f float64) float64 {
		return f*p.SerialSeconds + p.parallelTime(r, f, true, true, 1, 1, p.VectorEfficiency, false, p.EffParallelism)
	}
	lo, hi := 0.0, 1.0
	if eval(0) > target {
		// Even a fully parallel decomposition is slower than the
		// target: the structural choices are inconsistent.
		return 0, fmt.Errorf("perfect: %s cannot reach %.1fs (min %.1fs); raise EffParallelism or rates",
			p.Name, target, eval(0))
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if eval(mid) > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2, nil
}

// solveKapFrac finds the KAP residual fraction the same way; KAP's
// shortfall cannot make the model slower than serial, so the fraction is
// clamped.
func (p *Profile) solveKapFrac(r Rates) float64 {
	target := p.Targets.KapSeconds - p.overheads(r, 1, false)
	eval := func(f float64) float64 {
		return f*p.SerialSeconds + (1-f)*p.Mflop/(p.KapParallelism*r.VectorGlobalPref*p.VectorEfficiency)
	}
	if eval(1) <= target {
		return 1
	}
	if eval(0) >= target {
		return 0
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if eval(mid) > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}
