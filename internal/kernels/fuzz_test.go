package kernels

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cedarfort"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/xylem"
)

// The equivalence suites above replay fixed kernels; this one replays a
// randomized schedule of external stimuli — DOALL dispatches, serial
// spans, barrier episodes and IP submissions in arbitrary order — so the
// wake-cached path's dormancy bookkeeping is exercised across stimulus
// patterns nobody hand-picked. The schedule is generated ONCE from a
// seeded sim.Rand and replayed verbatim on one machine per engine path,
// so any divergence is the engine's fault, not the generator's.

// fuzzSeed pins the schedule; `make ci` runs exactly this sequence.
const fuzzSeed = 0x5EDA2C3D

type fuzzStep struct {
	kind      int
	n         int       // iterations / SDOALL width
	cost      sim.Cycle // per-iteration compute
	vector    bool      // body also touches global memory through the PFU
	affinity  bool      // SDOALL placement
	cluster   int       // IP step: which cluster's IP
	words     int64     // IP step: transfer size
	formatted bool      // IP step: formatted transfer
}

const (
	stepXDOALLSelf = iota
	stepXDOALLStatic
	stepSDOALL
	stepSerial
	stepBarrier
	stepIP
	numStepKinds
)

// fuzzSchedule draws a schedule for a machine with the given cluster
// count. Every parameter comes from r, so the same seed always yields
// the same stimuli.
func fuzzSchedule(r *sim.Rand, clusters, steps int) []fuzzStep {
	sched := make([]fuzzStep, steps)
	for i := range sched {
		st := fuzzStep{
			kind: r.Intn(numStepKinds),
			n:    1 + r.Intn(clusters*16),
			cost: sim.Cycle(5 + r.Intn(200)),
		}
		st.vector = r.Intn(3) == 0
		st.affinity = r.Intn(2) == 0
		st.cluster = r.Intn(clusters)
		st.words = int64(64 + r.Intn(4000))
		st.formatted = r.Intn(2) == 0
		sched[i] = st
	}
	return sched
}

// replayFuzz drives one machine through the schedule and returns its
// observable state: final time, kernel fingerprint, registry and sampler
// fingerprints, and the exported trace bytes.
func replayFuzz(t *testing.T, m *core.Machine, sched []fuzzStep) (kernel, registry, sampler string, trace []byte) {
	t.Helper()
	s := m.NewSampler(500)
	rt := cedarfort.New(m, cedarfort.DefaultConfig())
	for si, st := range sched {
		switch st.kind {
		case stepXDOALLSelf, stepXDOALLStatic:
			how := cedarfort.SelfScheduled
			if st.kind == stepXDOALLStatic {
				how = cedarfort.Static
			}
			base := isa.Addr{Space: isa.Global, Word: m.AllocGlobal(uint64(StripLen))}
			if _, err := rt.XDOALL(st.n, how, func(ctx *cedarfort.Ctx, iter int) {
				ctx.Emit(isa.NewCompute(st.cost))
				if st.vector {
					ctx.Emit(isa.NewPrefetch(base, 16, 1))
					ctx.Emit(isa.NewVectorLoad(base, 16, 1, 16, true))
				}
			}); err != nil {
				t.Fatalf("step %d XDOALL: %v", si, err)
			}
		case stepSDOALL:
			width := 1 + st.n%(len(m.Clusters)*2)
			if _, err := rt.SDOALL(width, st.affinity, func(ctx *cedarfort.Ctx, iter int) {
				ctx.Emit(isa.NewCompute(st.cost))
			}); err != nil {
				t.Fatalf("step %d SDOALL: %v", si, err)
			}
		case stepSerial:
			rt.Serial(st.cost * 10)
		case stepBarrier:
			n := m.NumCEs()
			b := rt.NewBarrier(n)
			for id := 0; id < n; id++ {
				g := isa.NewGen(func(g *isa.Gen) bool { return false })
				g.Emit(isa.NewCompute(st.cost + sim.Cycle((id*13)%41)))
				b.Emit(g)
				g.Emit(isa.NewCompute(1))
				m.Dispatch(id, g)
			}
			if _, err := m.RunUntilIdle(2_000_000); err != nil {
				t.Fatalf("step %d barrier: %v", si, err)
			}
		case stepIP:
			// Machine.Idle ignores the IP, so the step tracks its own
			// completion; the Submit must revive a dormant IP on the
			// wake-cached path or this RunUntil dies on the deadline.
			done := false
			m.Clusters[st.cluster].IPs.Submit(m.Eng.Now(), st.words, st.formatted,
				func(xylem.IOCompletion) { done = true })
			if _, err := m.Eng.RunUntil(func() bool { return done }, 10_000_000); err != nil {
				t.Fatalf("step %d IP: %v", si, err)
			}
		}
		if m.FaultInj != nil {
			// Under fault injection a step can end with recovery still in
			// flight — a check-stopped CE awaiting repair, a surrendered
			// program awaiting redispatch. Drain it before the next step:
			// the runtime's dispatchers require idle CEs.
			if _, err := m.RunUntilIdle(10_000_000); err != nil {
				t.Fatalf("step %d fault-recovery drain: %v", si, err)
			}
		}
	}
	s.Final()
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	return fingerprint(m), m.Registry().Fingerprint(), s.Fingerprint(), buf.Bytes()
}

// faultMachineAt is machineAt with the fault subsystem enabled: a dense
// deterministic schedule of network stalls and drops, memory busy and
// degrade windows, and CE check-stops, plus the recovery knobs (request
// timeouts, gang rescheduling) the faults exercise.
func faultMachineAt(clusters int, mode sim.EngineMode) *core.Machine {
	cfg := core.ConfigClusters(clusters)
	cfg.Global.Words = 1 << 20
	cfg.EngineMode = mode
	cfg.Fault = fault.DefaultConfig(fuzzSeed + uint64(clusters))
	cfg.Fault.MeanInterval = 300
	return core.MustNew(cfg)
}

// TestFuzzScheduleFaultEngineEquivalence is the central correctness claim
// of the fault subsystem: with a fixed fault seed, the same stimulus
// schedule under active fault injection leaves both engine paths in
// bit-identical architected states — fingerprints, metrics registry,
// sampler and exported trace bytes — at every cluster scale. The fault
// schedule itself (the injector's counters) is part of the compared
// registry, so a single fault landing on a different cycle in any mode
// fails the test.
func TestFuzzScheduleFaultEngineEquivalence(t *testing.T) {
	for _, clusters := range []int{1, 2, 4} {
		clusters := clusters
		t.Run(fmt.Sprintf("%dcluster", clusters), func(t *testing.T) {
			steps := 12
			if clusters == 4 {
				if testing.Short() {
					t.Skip("4-cluster fault fuzz replay; skipped with -short")
				}
				steps = 8
			}
			sched := fuzzSchedule(sim.NewRand(fuzzSeed+uint64(clusters)), clusters, steps)

			naive := faultMachineAt(clusters, sim.ModeNaive)
			kn, rn, sn, tn := replayFuzz(t, naive, sched)
			if naive.FaultInj.Injected == 0 {
				t.Fatal("fault schedule injected nothing: the test exercises no recovery path")
			}
			fast := faultMachineAt(clusters, sim.ModeWakeCached)
			kf, rf, sf, tf := replayFuzz(t, fast, sched)
			what := fmt.Sprintf("fault fuzz %dcl", clusters)
			diffFingerprints(t, what+" kernel", kf, kn)
			diffFingerprints(t, what+" registry", rf, rn)
			diffFingerprints(t, what+" sampler", sf, sn)
			if !bytes.Equal(tf, tn) {
				t.Fatalf("%s emitted different trace bytes than naive (%d vs %d)", what, len(tf), len(tn))
			}
			if fast.Eng.Now() != naive.Eng.Now() {
				t.Fatalf("%s final time %d != naive %d", what, fast.Eng.Now(), naive.Eng.Now())
			}
		})
	}
}

// TestFuzzScheduleEngineEquivalence: at 1-, 2- and 4-cluster scale, the
// same randomized stimulus schedule must leave both engine paths in
// bit-identical architected states, down to the exported trace bytes.
func TestFuzzScheduleEngineEquivalence(t *testing.T) {
	for _, clusters := range []int{1, 2, 4} {
		clusters := clusters
		t.Run(fmt.Sprintf("%dcluster", clusters), func(t *testing.T) {
			steps := 12
			if clusters == 4 {
				if testing.Short() {
					t.Skip("4-cluster fuzz replay; skipped with -short")
				}
				steps = 8
			}
			sched := fuzzSchedule(sim.NewRand(fuzzSeed+uint64(clusters)), clusters, steps)

			naive := machineAt(clusters, sim.ModeNaive)
			kn, rn, sn, tn := replayFuzz(t, naive, sched)
			if naive.Eng.SkippedTicks != 0 || naive.Eng.DormantSkips != 0 {
				t.Fatal("naive reference took a fast path")
			}
			fast := machineAt(clusters, sim.ModeWakeCached)
			kf, rf, sf, tf := replayFuzz(t, fast, sched)
			what := fmt.Sprintf("fuzz %dcl", clusters)
			diffFingerprints(t, what+" kernel", kf, kn)
			diffFingerprints(t, what+" registry", rf, rn)
			diffFingerprints(t, what+" sampler", sf, sn)
			if !bytes.Equal(tf, tn) {
				t.Fatalf("%s emitted different trace bytes than naive (%d vs %d)", what, len(tf), len(tn))
			}
			if fast.Eng.Now() != naive.Eng.Now() {
				t.Fatalf("%s final time %d != naive %d", what, fast.Eng.Now(), naive.Eng.Now())
			}
			if fast.Eng.DormantSkips == 0 {
				t.Fatalf("%s never skipped a dormant component: fuzz schedule exercised nothing", what)
			}
		})
	}
}
