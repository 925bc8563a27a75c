package core

import (
	"testing"

	"repro/internal/ce"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/sim"
)

// ceTicks reads the engine's self-profile: ticks of every CE so far.
func ceTicks(t *testing.T, m *Machine) int64 {
	t.Helper()
	n, ok := m.Registry().Value("engine/ticks/ce")
	if !ok {
		t.Fatal("no engine/ticks/ce diagnostic")
	}
	return n
}

// waitRun is one engine path's run of a single global operation on CE 0.
type waitRun struct {
	m         *Machine
	delivered sim.Cycle // last cycle the reverse network delivered to CE 0
	retired   sim.Cycle // cycle the operation's OnDone ran
	value     int64
	// ticks[c] is the number of CE ticks in cycles [0, c].
	ticks []int64
}

// runWait dispatches op(a) to CE 0 of a machine at cycle 0, a being a
// global word holding 42, steps the machine until the operation retires,
// and lets it drain. between, when non-nil, runs after every step (a
// fault hook). Without a read timeout the CE must report NextEvent Never
// from the dispatch tick until its reply is delivered.
func runWait(t *testing.T, mode sim.EngineMode, cfg Config, op func(a uint64) *isa.Op, between func(m *Machine)) waitRun {
	t.Helper()
	cfg.EngineMode = mode
	m := MustNew(cfg)
	r := waitRun{m: m, delivered: -1, retired: -1}
	a := m.AllocGlobal(1)
	m.Global.StoreInt(a, 42)
	o := op(a)
	o.OnDone = func(v int64, _ bool) { r.retired, r.value = m.Eng.Now(), v }
	m.Rev.OnDeliver = func(now sim.Cycle, port int, _ *network.Packet) {
		if port == 0 {
			r.delivered = now
		}
	}
	m.Dispatch(0, isa.NewSeq(o))
	for r.retired < 0 {
		now := m.Eng.Now()
		if now > 2000 {
			t.Fatalf("%v: operation still pending at cycle %d", mode, now)
		}
		if now > 0 && r.delivered < 0 && cfg.CE.ReadTimeout == 0 {
			if ne := m.CE(0).NextEvent(now); ne != sim.Never {
				t.Fatalf("%v: cycle %d: CE 0 awaiting its reply reports NextEvent %d, want Never", mode, now, ne)
			}
		}
		m.Eng.Step()
		r.ticks = append(r.ticks, ceTicks(t, m))
		if between != nil {
			between(m)
		}
	}
	if _, err := m.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	return r
}

// sameAccounting fails unless CE 0's stall counters and every cycle
// bucket match between the two runs, and so does every architected
// counter in the registry.
func sameAccounting(t *testing.T, what string, got, naive *Machine) {
	t.Helper()
	g, w := got.CE(0), naive.CE(0)
	if g.StallMem != w.StallMem || g.StallNet != w.StallNet {
		t.Errorf("%s: StallMem/StallNet %d/%d, naive %d/%d", what, g.StallMem, g.StallNet, w.StallMem, w.StallNet)
	}
	if g.Acct != w.Acct {
		t.Errorf("%s: buckets %v, naive %v", what, g.Acct.Cycles, w.Acct.Cycles)
	}
	if got.Registry().Fingerprint() != naive.Registry().Fingerprint() {
		t.Errorf("%s: registry fingerprint differs from naive", what)
	}
}

// TestReplyWaitsPark: a global scalar read and a fetch-and-add leave the
// CE dormant until the reverse network delivers the reply. The read
// retires XferCycles after delivery, and stall counters and cycle
// buckets match the naive engine's.
func TestReplyWaitsPark(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(a uint64) *isa.Op
	}{
		{"scalar", scalarLoad},
		{"sync", func(a uint64) *isa.Op { return isa.NewSync(a, network.FetchAndAdd(1)) }},
	} {
		naive := runWait(t, sim.ModeNaive, testConfig(1), tc.op, nil)
		fast := runWait(t, sim.ModeWakeCached, testConfig(1), tc.op, nil)
		for _, r := range []waitRun{naive, fast} {
			if r.value != 42 {
				t.Errorf("%s: returned %d, want 42", tc.name, r.value)
			}
			if tc.name == "scalar" && r.retired != r.delivered+r.m.Config().CE.XferCycles {
				t.Errorf("%s: delivered at %d, retired at %d, want delivery + XferCycles", tc.name, r.delivered, r.retired)
			}
		}
		if fast.delivered != naive.delivered || fast.retired != naive.retired {
			t.Errorf("%s: wake-cached delivered/retired at %d/%d, naive %d/%d",
				tc.name, fast.delivered, fast.retired, naive.delivered, naive.retired)
		}
		// Vacuity guard, read from the engine's self-profile: the naive
		// engine ticks every CE through the round trip, the wake-cached
		// engine none.
		d := fast.delivered
		if got, ref := fast.ticks[d]-fast.ticks[0], naive.ticks[d]-naive.ticks[0]; got != 0 || ref < int64(d) {
			t.Errorf("%s: CE ticks in cycles 1..%d: wake-cached %d (want 0), naive %d (want >= %d)", tc.name, d, got, ref, d)
		}
		sameAccounting(t, tc.name, fast.m, naive.m)
	}
}

// TestParkedReadWakesAtDeadline: with a read timeout set and the first
// reply dropped in the reverse network, the parked CE wakes at its
// deadline and reissues, and charges the wait after the reissue to
// recovery exactly as the naive engine does.
func TestParkedReadWakesAtDeadline(t *testing.T) {
	cfg := testConfig(1)
	cfg.CE.ReadTimeout = 30
	cfg.CE.MaxRetries = 3
	run := func(mode sim.EngineMode) (waitRun, sim.Cycle) {
		dropped := false
		reissued := sim.Cycle(-1)
		r := runWait(t, mode, cfg, scalarLoad, func(m *Machine) {
			if !dropped {
				dropped = dropReplyTo(m.Rev, 0)
			}
			if reissued < 0 && m.CE(0).Retries > 0 {
				reissued = m.Eng.Now() - 1
			}
		})
		if !dropped {
			t.Fatalf("%v: the first reply was never dropped", mode)
		}
		return r, reissued
	}
	naive, nAt := run(sim.ModeNaive)
	fast, fAt := run(sim.ModeWakeCached)
	deadline := cfg.CE.ReadTimeout // the read issued at cycle 0
	for _, x := range []struct {
		r  waitRun
		at sim.Cycle
	}{{naive, nAt}, {fast, fAt}} {
		c := x.r.m.CE(0)
		if x.at != deadline || c.Retries != 1 || x.r.value != 42 {
			t.Errorf("%v: reissued at %d (want %d), Retries %d, value %d",
				x.r.m.Eng.Mode(), x.at, deadline, c.Retries, x.r.value)
		}
		if c.Acct.Cycles[isa.AcctRecovery] == 0 {
			t.Errorf("%v: no cycles charged to recovery", x.r.m.Eng.Mode())
		}
	}
	// The dropped reply never wakes the CE: the wake-cached engine ticks
	// it after dispatch only at the deadline.
	if got := fast.ticks[deadline] - fast.ticks[0]; got != 1 {
		t.Errorf("wake-cached CE ticks in cycles 1..%d = %d, want 1 (the reissue)", deadline, got)
	}
	sameAccounting(t, "reissued read", fast.m, naive.m)
}

func scalarLoad(a uint64) *isa.Op { return isa.NewScalarLoad(isa.Addr{Space: isa.Global, Word: a}) }

// dropReplyTo drops a read reply addressed to port from the head of a
// reverse-network switch input queue, reporting whether it found one.
func dropReplyTo(rev *network.Network, port int) bool {
	allow := func(p *network.Packet) bool { return p.Dst == port && p.Tag >= ce.TagBase && p.Tag < ce.SyncTagBase }
	for s := 0; s < rev.Stages(); s++ {
		for swi := 0; swi < rev.Ports()/rev.Radix(); swi++ {
			for in := 0; in < rev.Radix(); in++ {
				if rev.DropSwitchHead(s, swi, in, allow) != nil {
					return true
				}
			}
		}
	}
	return false
}
