package kernels

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xylem"
)

// TestIOBDNAEquivalence runs the BDNA workload on every runAllModes leg
// and, on each, checks the exact serial-I/O accounting: every
// transfer goes through cluster 0's IP (the machine leader's), the
// other IPs stay silent, and the busy time is precisely volume x rate.
func TestIOBDNAEquivalence(t *testing.T) {
	const steps = 3
	runAllModes(t, "BDNA", 2, func(m *core.Machine) job.Result {
		n := m.NumCEs() * StripLen * 2
		r, err := runBDNA(m, workload.Params{Size: n, Iterations: steps, Prefetch: true}, workload.Attachments{})
		if err != nil {
			t.Fatal(err)
		}
		ip0 := m.Clusters[0].IPs
		if ip0.Requests != steps || ip0.WordsMoved != int64(steps*n) {
			t.Fatalf("leader IP served %d requests / %d words, want %d / %d",
				ip0.Requests, ip0.WordsMoved, steps, steps*n)
		}
		if want := int64(xylem.IOCost(int64(steps*n), true)); ip0.BusyCycles != want {
			t.Fatalf("leader IP busy %d cycles, want exactly %d", ip0.BusyCycles, want)
		}
		for i, clu := range m.Clusters[1:] {
			if clu.IPs.Requests != 0 {
				t.Fatalf("cluster %d IP served %d requests; BDNA I/O must serialize through the leader's",
					i+1, clu.IPs.Requests)
			}
		}
		// Compute and I/O alternate (the write ends each step), so the
		// wall clock splits exactly and the compute:I/O ratio must land
		// near the profile-derived target.
		spec, err := bdnaSpec()
		if err != nil {
			t.Fatal(err)
		}
		ioWall := float64(xylem.IOCost(int64(steps*n), true))
		measured := (float64(r.Cycles) - ioWall) / ioWall
		if measured < spec.ratio*0.8 || measured > spec.ratio*1.35 {
			t.Fatalf("BDNA compute/I-O ratio %.2f, want near profile target %.2f", measured, spec.ratio)
		}
		return r
	})
}

// TestIOMG3DEquivalence runs the MG3D workload on every runAllModes leg
// and checks the parallel-I/O accounting: every cluster's IP
// reads exactly its partition, raw, once per step.
func TestIOMG3DEquivalence(t *testing.T) {
	const steps = 3
	runAllModes(t, "MG3D", 2, func(m *core.Machine) job.Result {
		n := m.NumCEs() * StripLen * 2
		r, err := runMG3D(m, workload.Params{Size: n, Iterations: steps}, workload.Attachments{})
		if err != nil {
			t.Fatal(err)
		}
		part := int64(n / len(m.Clusters))
		for i, clu := range m.Clusters {
			ip := clu.IPs
			if ip.Requests != steps || ip.WordsMoved != steps*part {
				t.Fatalf("cluster %d IP served %d requests / %d words, want %d / %d",
					i, ip.Requests, ip.WordsMoved, steps, steps*part)
			}
			if want := int64(xylem.IOCost(steps*part, false)); ip.BusyCycles != want {
				t.Fatalf("cluster %d IP busy %d cycles, want exactly %d", i, ip.BusyCycles, want)
			}
		}
		return r
	})
}

// TestIOFaultEquivalence is satellite coverage for the IP fault hooks:
// with the two IP kinds and the three cluster-internal kinds enabled
// (no network, memory or check-stop faults), the fault schedule must
// actually hit the IPs, and the run must still be bit-identical across
// both engine paths — injected busy windows and delayed completions may
// slow the machine, never fork it.
func TestIOFaultEquivalence(t *testing.T) {
	ipFaultConfig := func() fault.Config {
		cfg := fault.DefaultConfig(0xB10C5ED)
		cfg.MeanInterval = 2000
		cfg.Kinds = []fault.Kind{fault.IPBusy, fault.IPDelay, fault.CacheBankBusy, fault.BusStall, fault.CEDrop}
		return cfg
	}
	for _, name := range []string{"bdna", "mg3d"} {
		var ref job.Result
		var refPrint string
		for i := len(engineModes) - 1; i >= 0; i-- {
			mode := engineModes[i]
			cfg := core.ConfigClusters(2)
			cfg.Global.Words = 1 << 20
			cfg.EngineMode = mode
			cfg.Fault = ipFaultConfig()
			m := core.MustNew(cfg)
			r, err := Run(name, m, workload.Params{Iterations: 2}, workload.Attachments{})
			if err != nil {
				t.Fatal(err)
			}
			var hits int64
			for _, clu := range m.Clusters {
				hits += clu.IPs.FaultBusies + clu.IPs.FaultDelays
			}
			if hits == 0 {
				t.Fatalf("%s [%v]: fault schedule never hit an IP", name, mode)
			}
			if m.FaultInj.IPBusies+m.FaultInj.IPDelays != hits {
				t.Fatalf("%s [%v]: injector counted %d IP faults, IPs saw %d",
					name, mode, m.FaultInj.IPBusies+m.FaultInj.IPDelays, hits)
			}
			if mode == sim.ModeNaive {
				ref, refPrint = r, fingerprint(m)
				continue
			}
			label := fmt.Sprintf("%s under IP faults [%v]", name, mode)
			checkResults(t, label, r, ref)
			diffFingerprints(t, label, fingerprint(m), refPrint)
		}
	}
}

// TestIODeadlineDiagnostic is the satellite regression: a program
// blocked on an outstanding transfer must never deadlock the wake-cached
// engine, and if a run's deadline expires mid-transfer, the error must
// name the parked program instead of timing out silently.
func TestIODeadlineDiagnostic(t *testing.T) {
	cfg := core.ConfigClusters(1)
	cfg.Global.Words = 1 << 20
	m := core.MustNew(cfg) // default mode: wake-cached
	const words = 50_000
	const label = "checkpoint-writer phase 3"
	op := isa.NewIORequest(words, true)
	op.IOLabel = label
	m.Dispatch(0, isa.NewSeq(isa.NewCompute(2), op, isa.NewCompute(3)))

	_, err := m.RunUntilIdle(1000)
	if !errors.Is(err, sim.ErrDeadline) {
		t.Fatalf("expected ErrDeadline mid-transfer, got %v", err)
	}
	if !strings.Contains(err.Error(), label) {
		t.Fatalf("deadline error does not name the parked program %q:\n%v", label, err)
	}
	if m.IOWait.Parked() != 1 {
		t.Fatalf("Parked() = %d mid-transfer, want 1", m.IOWait.Parked())
	}

	// Let the transfer finish: the parked program must redispatch, run
	// its trailing compute, and the wait must be attributed exactly.
	if _, err := m.RunUntilIdle(5_000_000); err != nil {
		t.Fatalf("program never redispatched after completion: %v", err)
	}
	c := m.CE(0)
	if c.IORequests != 1 || c.IOWords != words {
		t.Fatalf("CE I/O counters %d requests / %d words, want 1 / %d", c.IORequests, c.IOWords, words)
	}
	if want := int64(xylem.IOCost(words, true)); c.IOWaitCycles != want {
		t.Fatalf("CE waited %d cycles, want exactly %d", c.IOWaitCycles, want)
	}
	if m.IOWait.Parked() != 0 || m.IOWait.Completions() != 1 {
		t.Fatalf("park table left: %d parked, %d completions", m.IOWait.Parked(), m.IOWait.Completions())
	}
}

// TestIORegistryNames checks that the name table lists exactly the six
// mnemonics, that the I/O kernels run through it by name like any
// other, and that an unknown name lists the six.
func TestIORegistryNames(t *testing.T) {
	want := []string{"bdna", "cg", "mg3d", "rk", "tm", "vl"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	m := machineAt(1, sim.ModeWakeCached)
	r, err := Run("bdna", m, workload.Params{Iterations: 1}, workload.Attachments{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Check == 0 || len(r.Notes) == 0 {
		t.Fatalf("run by name returned an empty result: %+v", r)
	}
	_, err = Run("no-such-kernel", m, workload.Params{}, workload.Attachments{})
	if err == nil || !strings.Contains(err.Error(), "(available: "+strings.Join(want, ", ")+")") {
		t.Fatalf("unknown-name error should list the six names, got: %v", err)
	}
}
