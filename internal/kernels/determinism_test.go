package kernels

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The fast engine path's contract is bit-identical results: every kernel
// must produce exactly the same cycle counts, numerics and hardware
// counters whether the engine ticks every component every cycle (naive)
// or skips idle components, fast-forwards quiet spans and caches Never
// answers behind the wake API (wake-cached, the default). These tests
// run each kernel on both paths and diff a full stats fingerprint of the
// machine against the naive reference.

// engineModes is every path, naive reference last.
var engineModes = []sim.EngineMode{sim.ModeWakeCached, sim.ModeNaive}

func machineAt(clusters int, mode sim.EngineMode) *core.Machine {
	cfg := core.ConfigClusters(clusters)
	cfg.Global.Words = 1 << 20
	cfg.EngineMode = mode
	return core.MustNew(cfg)
}

func enginePair(clusters int) (fast, naive *core.Machine) {
	return machineAt(clusters, sim.ModeWakeCached), machineAt(clusters, sim.ModeNaive)
}

// fingerprint serializes every architected counter in the machine, so
// any divergence between engine paths shows up as a readable diff.
func fingerprint(m *core.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d flops=%d\n", m.Eng.Now(), m.TotalFlops())
	for _, c := range m.CEs() {
		fmt.Fprintf(&b, "ce%d ops=%d flops=%d stallmem=%d stallnet=%d idle=%d fin=%d\n",
			c.ID, c.OpsDone, c.Flops, c.StallMem, c.StallNet, c.IdleCycles, c.FinishedAt)
		u := c.PFU()
		fmt.Fprintf(&b, "pfu%d pf=%d issued=%d cross=%d stall=%d\n",
			c.ID, u.Prefetches, u.Issued, u.PageCrossings, u.StallCycles)
		fmt.Fprintf(&b, "ceio%d rq=%d wait=%d words=%d\n",
			c.ID, c.IORequests, c.IOWaitCycles, c.IOWords)
		fmt.Fprintf(&b, "attr%d", c.ID)
		for bk := isa.Bucket(0); bk < isa.NumBuckets; bk++ {
			fmt.Fprintf(&b, " %s=%d", bk, c.Acct.Cycles[bk])
		}
		b.WriteString("\n")
	}
	for i, clu := range m.Clusters {
		ip := clu.IPs
		fmt.Fprintf(&b, "ip%d rq=%d busy=%d moved=%d done=%d wait=%d\n",
			i, ip.Requests, ip.BusyCycles, ip.WordsMoved, ip.Completions, ip.WaitCycles)
	}
	fmt.Fprintf(&b, "iowait parks=%d done=%d wait=%d parked=%d\n",
		m.IOWait.Parks(), m.IOWait.Completions(), m.IOWait.WaitCycles(), m.IOWait.Parked())
	fmt.Fprintf(&b, "fwd inj=%d del=%d words=%d rej=%d\n", m.Fwd.Injected, m.Fwd.Delivered, m.Fwd.WordsIn, m.Fwd.Rejected)
	fmt.Fprintf(&b, "rev inj=%d del=%d words=%d rej=%d\n", m.Rev.Injected, m.Rev.Delivered, m.Rev.WordsIn, m.Rev.Rejected)
	for i := 0; i < m.Global.Modules(); i++ {
		mod := m.Global.Module(i)
		fmt.Fprintf(&b, "mod%d served=%d sync=%d r=%d w=%d busy=%d\n",
			i, mod.Served, mod.SyncOps, mod.Reads, mod.Writes, mod.BusyCycles)
	}
	return b.String()
}

// diffFingerprints reports the first differing lines (the full prints
// are thousands of lines on 4 clusters).
func diffFingerprints(t *testing.T, what, fast, naive string) {
	t.Helper()
	if fast == naive {
		return
	}
	fl, nl := strings.Split(fast, "\n"), strings.Split(naive, "\n")
	for i := 0; i < len(fl) && i < len(nl); i++ {
		if fl[i] != nl[i] {
			t.Fatalf("%s: engine paths diverged at fingerprint line %d:\n  fast:  %s\n  naive: %s", what, i, fl[i], nl[i])
		}
	}
	t.Fatalf("%s: fingerprints differ in length (%d vs %d lines)", what, len(fl), len(nl))
}

func checkResults(t *testing.T, what string, fast, naive job.Result) {
	t.Helper()
	if fast.Cycles != naive.Cycles {
		t.Fatalf("%s: cycles %d (fast) != %d (naive)", what, fast.Cycles, naive.Cycles)
	}
	if fast.Flops != naive.Flops || fast.Check != naive.Check {
		t.Fatalf("%s: flops/check diverged: %d/%g vs %d/%g", what, fast.Flops, fast.Check, naive.Flops, naive.Check)
	}
}

// runAllModes runs the workload on the naive reference, then twice on
// wake-cached — first audited by a dormancyAudit probe, then plainly —
// and diffs each fast run's results and fingerprint against the
// reference. The audit fails the test at the cycle a component misses
// its Wake, naming it, where the plain leg would only show a
// fingerprint diff or a hang.
func runAllModes(t *testing.T, what string, clusters int, run func(m *core.Machine) job.Result) {
	t.Helper()
	naive := machineAt(clusters, sim.ModeNaive)
	ref := run(naive)
	refPrint := fingerprint(naive)
	for _, audited := range []bool{true, false} {
		m := machineAt(clusters, sim.ModeWakeCached)
		label := fmt.Sprintf("%s [wake-cached audited=%v]", what, audited)
		if audited {
			m.Eng.SetProbe(&dormancyAudit{t: t, label: label, eng: m.Eng})
		}
		r := run(m)
		checkResults(t, label, r, ref)
		diffFingerprints(t, label, fingerprint(m), refPrint)
	}
}

// dormancyAudit is a sim.Probe that samples every cycle and runs the
// engine's CheckDormant there. Sampling never perturbs a run, so the
// audited leg must still match the naive fingerprint.
type dormancyAudit struct {
	t     *testing.T
	label string
	eng   *sim.Engine
}

func (a *dormancyAudit) NextSample(now sim.Cycle) sim.Cycle { return now }

func (a *dormancyAudit) SampleNow(sim.Cycle) {
	if err := a.eng.CheckDormant(); err != nil {
		a.t.Fatalf("%s: %v", a.label, err)
	}
}

func TestDeterminismVectorLoad(t *testing.T) {
	for _, pf := range []bool{false, true} {
		runAllModes(t, fmt.Sprintf("VL prefetch=%v", pf), 1, func(m *core.Machine) job.Result {
			r, err := runVectorLoad(m, workload.Params{Size: m.NumCEs() * StripLen * 4, Prefetch: pf})
			if err != nil {
				t.Fatal(err)
			}
			return r
		})
	}
}

func TestDeterminismTriMatVec(t *testing.T) {
	for _, pf := range []bool{false, true} {
		runAllModes(t, fmt.Sprintf("TM prefetch=%v", pf), 2, func(m *core.Machine) job.Result {
			r, err := runTriMatVec(m, workload.Params{Size: m.NumCEs() * StripLen * 2, Prefetch: pf})
			if err != nil {
				t.Fatal(err)
			}
			return r
		})
	}
}

func TestDeterminismRank64(t *testing.T) {
	for _, mode := range []workload.Mode{workload.GMNoPrefetch, workload.GMPrefetch, workload.GMCache} {
		runAllModes(t, mode.String(), 1, func(m *core.Machine) job.Result {
			r, err := runRank64(m, newRank64Input(64), workload.Params{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			return r
		})
	}
}

func TestDeterminismCG(t *testing.T) {
	var refResidual float64
	runAllModes(t, "CG", 2, func(m *core.Machine) job.Result {
		rt := cedarfort.New(m, cedarfort.DefaultConfig())
		res, err := runCG(m, rt, newCGProblem(m.NumCEs()*StripLen*2, 5), workload.Params{Iterations: 3, Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		if m.Eng.Mode() == sim.ModeNaive {
			refResidual = res.FinalResidual
		} else if res.FinalResidual != refResidual {
			t.Fatalf("CG residual diverged on %v: %g vs %g", m.Eng.Mode(), res.FinalResidual, refResidual)
		}
		return res.Result
	})
}

// TestQuiescencePathExercised guards the guard: the equivalence above is
// vacuous if the fast path never actually skips anything on real
// workloads.
func TestQuiescencePathExercised(t *testing.T) {
	fast := machineAt(1, sim.ModeWakeCached)
	if _, err := runRank64(fast, newRank64Input(64), workload.Params{Mode: workload.GMCache}); err != nil {
		t.Fatal(err)
	}
	if fast.Eng.SkippedTicks == 0 {
		t.Fatal("fast engine never skipped an idle component tick")
	}
	if fast.Eng.FastForwarded == 0 {
		t.Fatal("fast engine never fast-forwarded a quiet span on a cache-mode kernel")
	}
	if fast.Eng.DormantSkips == 0 {
		t.Fatal("wake-cached engine never skipped a dormant component without a query")
	}
}
