package kernels

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cycle-accounting tests (DESIGN.md §4.8). The contract: every CE cycle
// is charged to exactly one bucket, so per-CE bucket sums equal elapsed
// cycles — on every workload, in every engine mode, with or without
// faults — and the per-CE io_park bucket reproduces the CE's exact
// I/O-wait accounting.

// attrOptions keeps the all-workload sweep fast while still exercising
// every bucket source: vector streams (direct and prefetched), scalar
// and sync traffic, and both I/O shapes.
func attrOptions(name string, m *core.Machine) workload.Params {
	switch name {
	case "rk":
		return workload.Params{Size: 64, Mode: workload.GMPrefetch}
	case "vl":
		return workload.Params{Size: m.NumCEs() * StripLen * 4}
	case "tm":
		return workload.Params{Size: m.NumCEs() * StripLen * 2, Prefetch: true}
	case "cg":
		return workload.Params{Iterations: 3, Prefetch: true}
	default: // bdna, mg3d
		return workload.Params{Iterations: 2}
	}
}

// checkConservation asserts the invariant on every CE and returns the
// per-CE bucket vectors for cross-mode comparison.
func checkConservation(t *testing.T, label string, m *core.Machine) [][]int64 {
	t.Helper()
	elapsed := int64(m.Eng.Now())
	out := make([][]int64, 0, m.NumCEs())
	for _, c := range m.CEs() {
		if got := c.Acct.Total(); got != elapsed {
			t.Fatalf("%s: ce%d bucket sum %d != elapsed %d cycles (buckets %v over %v)",
				label, c.ID, got, elapsed, c.Acct.Cycles, isa.AcctNames())
		}
		if got := c.Acct.Cycles[isa.AcctIOPark]; got != c.IOWaitCycles {
			t.Fatalf("%s: ce%d io_park bucket %d != IOWaitCycles %d",
				label, c.ID, got, c.IOWaitCycles)
		}
		v := make([]int64, isa.NumBuckets)
		copy(v, c.Acct.Cycles[:])
		out = append(out, v)
	}
	return out
}

func diffAttr(t *testing.T, label string, got, ref [][]int64) {
	t.Helper()
	for ce := range ref {
		for b := range ref[ce] {
			if got[ce][b] != ref[ce][b] {
				t.Fatalf("%s: ce%d bucket %s diverged from naive: %d vs %d",
					label, ce, isa.Bucket(b), got[ce][b], ref[ce][b])
			}
		}
	}
}

// TestAttrConservationAllWorkloads is the tentpole invariant: for every
// registry workload, in both engine modes, every CE's bucket totals
// sum exactly to the elapsed cycle count, and the full per-CE bucket
// vectors are bit-identical across modes.
func TestAttrConservationAllWorkloads(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var ref [][]int64
			for i := len(engineModes) - 1; i >= 0; i-- { // naive first: reference
				mode := engineModes[i]
				m := machineAt(2, mode)
				if _, err := workload.Run(name, m, attrOptions(name, m), workload.Attachments{}); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s [%v]", name, mode)
				vecs := checkConservation(t, label, m)
				if mode == sim.ModeNaive {
					ref = vecs
					continue
				}
				diffAttr(t, label, vecs, ref)
			}
		})
	}
}

// TestAttrBucketsExercised guards the sweep above against vacuity: across
// the registry, the workloads must actually charge cycles to the busy,
// dispatch, stall, park, and idle buckets (fault buckets are covered by
// the sweep below).
func TestAttrBucketsExercised(t *testing.T) {
	var total isa.Acct
	for _, name := range workload.Names() {
		m := machineAt(2, sim.ModeWakeCached)
		if _, err := workload.Run(name, m, attrOptions(name, m), workload.Attachments{}); err != nil {
			t.Fatal(err)
		}
		for _, c := range m.CEs() {
			for b, n := range c.Acct.Cycles {
				total.Add(isa.Bucket(b), n)
			}
		}
	}
	for b := isa.Bucket(0); b < isa.NumBuckets; b++ {
		if b == isa.AcctCheckStop || b == isa.AcctRecovery {
			continue // fault buckets: exercised by TestAttrFaultSweep
		}
		if total.Cycles[b] == 0 {
			t.Errorf("no registry workload ever charged bucket %s", b)
		}
	}
}

// TestAttrFaultSweep is the satellite fault-attribution check: under a
// dense seeded schedule of every fault class, conservation must still
// hold exactly, the recovery cycles must land in their own buckets —
// check-stop drain/freeze in check_stop, post-reissue read waits in
// recovery — so the fault census and the CPI stack cross-check, and the
// attribution must stay bit-identical across both engine paths.
func TestAttrFaultSweep(t *testing.T) {
	for _, name := range []string{"cg", "bdna"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var ref [][]int64
			for i := len(engineModes) - 1; i >= 0; i-- {
				mode := engineModes[i]
				cfg := core.ConfigClusters(2)
				cfg.Global.Words = 1 << 20
				cfg.EngineMode = mode
				cfg.Fault = fault.DefaultConfig(0xA77C0DE)
				cfg.Fault.MeanInterval = 400
				m := core.MustNew(cfg)
				if _, err := workload.Run(name, m, attrOptions(name, m), workload.Attachments{}); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s faulted [%v]", name, mode)
				vecs := checkConservation(t, label, m)

				var stops, retries, stopCycles, recCycles int64
				for _, c := range m.CEs() {
					stops += c.CheckStops
					retries += c.Retries
					stopCycles += c.Acct.Cycles[isa.AcctCheckStop]
					recCycles += c.Acct.Cycles[isa.AcctRecovery]
				}
				if stops == 0 {
					t.Fatalf("%s: fault schedule never check-stopped a CE; pick a denser schedule", label)
				}
				if stopCycles == 0 {
					t.Fatalf("%s: %d check-stops but zero check_stop cycles", label, stops)
				}
				if retries > 0 && recCycles == 0 {
					t.Fatalf("%s: %d read reissues but zero recovery cycles", label, retries)
				}
				if mode == sim.ModeNaive {
					ref = vecs
					continue
				}
				diffAttr(t, label, vecs, ref)
			}
		})
	}
}
