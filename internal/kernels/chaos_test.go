package kernels

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Chaos soak: the standing system-wide fault invariant. A seeded sweep
// over (fault-kind subsets x named workloads x both engine modes)
// asserts that every faulted run completes (no ErrDeadline), that the
// modes produce bit-identical fingerprints — architected
// counters, attribution, and the fault census itself — and that the
// census balances injected against recovered counts. Each
// (subset, workload) pair runs under its own seed, so the soak covers
// more distinct fault schedules than any per-kind test.

// chaosSubsets are the fault-kind subsets the soak sweeps; nil enables
// every kind.
var chaosSubsets = [][]string{
	nil,
	{"cache-bank-busy", "bus-stall", "ce-drop"},
}

func chaosMachine(clusters int, mode sim.EngineMode, seed uint64, kinds []string) *core.Machine {
	cfg := core.ConfigClusters(clusters)
	cfg.Global.Words = 1 << 20
	cfg.EngineMode = mode
	cfg.Fault = fault.DefaultConfig(seed)
	cfg.Fault.MeanInterval = 300
	if kinds != nil {
		if err := cfg.Fault.EnableOnly(kinds); err != nil {
			panic(err)
		}
	}
	return core.MustNew(cfg)
}

// chaosFingerprint extends the architected fingerprint with the fault
// census and the cluster-internal fault counters, so a mode divergence
// in any of the new hooks is caught even when it never perturbs a CE.
func chaosFingerprint(m *core.Machine) string {
	var b strings.Builder
	b.WriteString(fingerprint(m))
	inj := m.FaultInj
	fmt.Fprintf(&b, "fault inj=%d ns=%d nd=%d mb=%d md=%d cs=%d ib=%d id=%d cb=%d bs=%d cd=%d rep=%d nt=%d\n",
		inj.Injected, inj.NetStalls, inj.NetDrops, inj.MemBusies, inj.MemDegrades,
		inj.CheckStops, inj.IPBusies, inj.IPDelays, inj.CacheBusies, inj.BusStalls,
		inj.CEDrops, inj.Repairs, inj.NoTarget)
	for i, clu := range m.Clusters {
		fmt.Fprintf(&b, "cache%d fbusy=%d fstall=%d bus%d faults=%d ops=%d cycles=%d\n",
			i, clu.Cache.FaultBankBusies, clu.Cache.FaultBankStalls,
			i, clu.BusFaults, clu.BusStalledOps, clu.BusStallCycles)
	}
	return b.String()
}

// checkCensusBalance asserts the injected-vs-recovered invariants on a
// completed run:
//
//   - no request ever exhausted its reissue budget (the run completed,
//     so every lost read was recovered);
//   - every cluster-internal injection landed on its target (cache and
//     bus counters match the injector's);
//   - check-stops balance repairs up to the windows still pending;
//   - drops never exceed reissues: a dropped packet kills exactly one
//     request instance, instances = 1 + retries, and completion needs
//     one surviving instance — so with zero exhausted budgets each
//     recovery layer must have retried at least once per drop.
func checkCensusBalance(t *testing.T, label string, m *core.Machine) {
	t.Helper()
	inj := m.FaultInj
	var ceRetries, ceExhausted, pfuRetries, pfuExhausted int64
	for _, c := range m.CEs() {
		ceRetries += c.Retries
		ceExhausted += c.RetriesExhausted
		pfuRetries += c.PFU().Retries
		pfuExhausted += c.PFU().RetriesExhausted
	}
	if ceExhausted != 0 || pfuExhausted != 0 {
		t.Fatalf("%s: completed run left exhausted retry budgets (ce=%d pfu=%d)",
			label, ceExhausted, pfuExhausted)
	}
	var cacheBusies, busFaults int64
	for _, clu := range m.Clusters {
		cacheBusies += clu.Cache.FaultBankBusies
		busFaults += clu.BusFaults
	}
	if cacheBusies != inj.CacheBusies {
		t.Fatalf("%s: cache FaultBankBusies %d != injector CacheBusies %d",
			label, cacheBusies, inj.CacheBusies)
	}
	if busFaults != inj.BusStalls {
		t.Fatalf("%s: cluster BusFaults %d != injector BusStalls %d",
			label, busFaults, inj.BusStalls)
	}
	if inj.CheckStops-inj.Repairs != int64(inj.PendingRepairs()) {
		t.Fatalf("%s: check-stops %d - repairs %d != pending %d",
			label, inj.CheckStops, inj.Repairs, inj.PendingRepairs())
	}
	if inj.CEDrops > ceRetries {
		t.Fatalf("%s: %d CE drops but only %d CE reissues", label, inj.CEDrops, ceRetries)
	}
	if inj.NetDrops > pfuRetries {
		t.Fatalf("%s: %d prefetch drops but only %d PFU reissues", label, inj.NetDrops, pfuRetries)
	}
}

// TestChaosSoak is the harness: every (subset, workload) pair gets its
// own seed (12 seeds at full size, each swept over both modes).
// `go test -run TestChaosSoak ./internal/kernels/` runs it alone;
// -short trims the workload list.
func TestChaosSoak(t *testing.T) {
	names := Names()
	if testing.Short() {
		names = names[:2]
	}
	seed := uint64(0xC4A05)
	for _, kinds := range chaosSubsets {
		subset := "all-kinds"
		if kinds != nil {
			subset = strings.Join(kinds, "+")
		}
		for _, name := range names {
			seed++
			seed, kinds, name := seed, kinds, name
			t.Run(fmt.Sprintf("%s/%s", subset, name), func(t *testing.T) {
				var ref string
				var refAt sim.Cycle
				for i := len(engineModes) - 1; i >= 0; i-- { // naive first: reference
					mode := engineModes[i]
					m := chaosMachine(2, mode, seed, kinds)
					if _, err := Run(name, m, attrOptions(name, m), workload.Attachments{}); err != nil {
						t.Fatalf("[%v] hung or wedged: %v", mode, err)
					}
					label := fmt.Sprintf("%s seed %#x [%v]", name, seed, mode)
					checkCensusBalance(t, label, m)
					fp := chaosFingerprint(m)
					if mode == sim.ModeNaive {
						ref, refAt = fp, m.Eng.Now()
						continue
					}
					if m.Eng.Now() != refAt {
						t.Fatalf("%s: finished at cycle %d, naive at %d", label, m.Eng.Now(), refAt)
					}
					diffFingerprints(t, label, fp, ref)
				}
			})
		}
	}
}

// TestChaosSoakExercisesNewKinds guards the soak against vacuity: under
// the cluster-internal subset the three new kinds must actually fire
// and their recovery paths must actually run — bank-busy refusals,
// stretched bus ops, and CE reissues of dropped direct reads.
func TestChaosSoakExercisesNewKinds(t *testing.T) {
	var busies, stalls, drops, refused, retries int64
	// vl and tm run direct global streams (CE-tagged reads to drop); rk
	// in GM/cache mode stages its blocks through the cluster cache, where
	// a bank-busy window can refuse it service.
	for _, name := range []string{"vl", "tm", "rk"} {
		m := chaosMachine(2, sim.ModeWakeCached, 0xD1CE, chaosSubsets[1])
		opts := attrOptions(name, m)
		opts.Prefetch = false // direct global streams carry CE tags
		if name == "rk" {
			opts.Mode = workload.GMCache
		}
		if _, err := Run(name, m, opts, workload.Attachments{}); err != nil {
			t.Fatal(err)
		}
		busies += m.FaultInj.CacheBusies
		stalls += m.FaultInj.BusStalls
		drops += m.FaultInj.CEDrops
		for _, clu := range m.Clusters {
			refused += clu.Cache.FaultBankStalls
		}
		for _, c := range m.CEs() {
			retries += c.Retries
		}
	}
	if busies == 0 || stalls == 0 || drops == 0 {
		t.Fatalf("new kinds not all injected: cache-busies=%d bus-stalls=%d ce-drops=%d",
			busies, stalls, drops)
	}
	if refused == 0 {
		t.Fatalf("%d bank-busy windows never refused an access", busies)
	}
	if retries == 0 {
		t.Fatalf("%d CE drops never provoked a reissue", drops)
	}

	// The named kernels partition work statically and XDOALL claims
	// through global FetchAndAdd syncs — only a CDOALL nested in an
	// SDOALL puts claim and spread traffic on the cluster concurrency
	// bus. Run one under bus-stall injection to prove the stretch path
	// fires.
	m := chaosMachine(1, sim.ModeWakeCached, 0xD1CE, []string{"bus-stall"})
	rt := cedarfort.New(m, cedarfort.DefaultConfig())
	if _, err := rt.SDOALL(16, true, func(ctx *cedarfort.Ctx, iter int) {
		ctx.CDOALL(64, cedarfort.SelfScheduled, func(ictx *cedarfort.Ctx, j int) {
			ictx.Emit(isa.NewCompute(20))
		})
	}); err != nil {
		t.Fatal(err)
	}
	var stretched int64
	for _, clu := range m.Clusters {
		stretched += clu.BusStalledOps
	}
	if m.FaultInj.BusStalls == 0 || stretched == 0 {
		t.Fatalf("%d bus stalls stretched %d claim/spread ops, want both > 0",
			m.FaultInj.BusStalls, stretched)
	}
}
