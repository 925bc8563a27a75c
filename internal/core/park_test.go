package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ce"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/prefetch"
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

// waitRun is one engine path's run of global operations on CE 0.
type waitRun struct {
	m         *Machine
	delivered []sim.Cycle // cycles the reverse network delivered to CE 0
	retired   sim.Cycle   // cycle the last operation's OnDone ran
	value     int64
	// ticks[c] is the number of CE ticks in cycles [0, c].
	ticks []int64
	// next[c] is CE 0's NextEvent answer as cycle c began.
	next []sim.Cycle
}

// runWait dispatches ops(a) to CE 0 of a machine at cycle 0, a being a
// global word holding 42, steps the machine until the last operation
// retires, and lets it drain. between, when non-nil, runs after every
// step (a fault hook).
func runWait(t *testing.T, mode sim.EngineMode, cfg Config, ops func(a uint64) []*isa.Op, between func(m *Machine)) waitRun {
	t.Helper()
	cfg.EngineMode = mode
	m := MustNew(cfg)
	r := waitRun{m: m, retired: -1}
	a := m.AllocGlobal(1)
	m.Global.StoreInt(a, 42)
	o := ops(a)
	o[len(o)-1].OnDone = func(v int64, _ bool) { r.retired, r.value = m.Eng.Now(), v }
	m.Rev.OnDeliver = func(now sim.Cycle, port int, _ *network.Packet) {
		if port == 0 {
			r.delivered = append(r.delivered, now)
		}
	}
	m.Dispatch(0, isa.NewSeq(o...))
	for r.retired < 0 {
		now := m.Eng.Now()
		if now > 2000 {
			t.Fatalf("%v: operation still pending at cycle %d", mode, now)
		}
		r.next = append(r.next, m.CE(0).NextEvent(now))
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

// parked returns the cycles at whose start CE 0 answered Never, and
// fails unless the wake-cached engine ticked no CE in them while the
// naive engine ticked every CE.
func parked(t *testing.T, what string, fast, naive waitRun) []sim.Cycle {
	t.Helper()
	var out []sim.Cycle
	for c, ne := range fast.next {
		if ne != sim.Never || c >= len(naive.ticks) {
			continue
		}
		out = append(out, sim.Cycle(c))
		if got, ref := fast.ticks[c]-fast.ticks[c-1], naive.ticks[c]-naive.ticks[c-1]; got != 0 || ref != int64(fast.m.NumCEs()) {
			t.Errorf("%s: cycle %d: CE ticks wake-cached %d (want 0), naive %d (want %d)", what, c, got, ref, fast.m.NumCEs())
		}
	}
	return out
}

// sameAccounting fails unless CE 0's stall counters and every cycle
// bucket match between the two runs, and so does every architected
// counter in the registry.
func sameAccounting(t *testing.T, what string, got, naive *Machine) {
	t.Helper()
	g, w := got.CE(0), naive.CE(0)
	if g.StallMem != w.StallMem || g.StallNet != w.StallNet || g.PFU().SpinWaits != w.PFU().SpinWaits {
		t.Errorf("%s: StallMem/StallNet/SpinWaits %d/%d/%d, naive %d/%d/%d", what,
			g.StallMem, g.StallNet, g.PFU().SpinWaits, w.StallMem, w.StallNet, w.PFU().SpinWaits)
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
		ops := func(a uint64) []*isa.Op { return []*isa.Op{tc.op(a)} }
		naive := runWait(t, sim.ModeNaive, testConfig(1), ops, nil)
		fast := runWait(t, sim.ModeWakeCached, testConfig(1), ops, nil)
		d := fast.delivered[0]
		for _, r := range []waitRun{naive, fast} {
			if r.value != 42 {
				t.Errorf("%s: returned %d, want 42", tc.name, r.value)
			}
			if tc.name == "scalar" && r.retired != r.delivered[0]+ce.XferCycles {
				t.Errorf("%s: delivered at %d, retired at %d, want delivery + XferCycles", tc.name, r.delivered[0], r.retired)
			}
		}
		if d != naive.delivered[0] || fast.retired != naive.retired {
			t.Errorf("%s: wake-cached delivered/retired at %d/%d, naive %d/%d",
				tc.name, d, fast.retired, naive.delivered[0], naive.retired)
		}
		// The CE awaits its reply from the dispatch tick until the
		// delivery, and the self-profile shows the naive engine ticking
		// every CE through the round trip, the wake-cached engine none.
		if p := parked(t, tc.name, fast, naive); len(p) != int(d) || p[0] != 1 {
			t.Errorf("%s: CE 0 answered Never at cycles %v, want 1..%d", tc.name, p, d)
		}
		sameAccounting(t, tc.name, fast.m, naive.m)
	}
}

// TestVectorWaitsPark: a direct vector load with its MaxOutstanding
// requests in flight parks until its head element's reply arrives, and a
// prefetched one parks while its head word is on its way: held up by the
// PFU's suspension at a page crossing, or by a busy memory module from
// before the startup fill ends, so one elided span covers both the fill
// and the wait. Stall counters, the PFU's spin-waits, every cycle bucket
// and the registry match the naive engine's.
func TestVectorWaitsPark(t *testing.T) {
	cfg := testConfig(1)
	// Four words before a page boundary, then four after it.
	pb := isa.Addr{Space: isa.Global, Word: 2*prefetch.PageWords - 4}
	prefetched := func(uint64) []*isa.Op {
		return []*isa.Op{isa.NewPrefetch(pb, 8, 1), isa.NewVectorLoad(pb, 8, 1, 2, true)}
	}
	busy := func(m *Machine) {
		if m.Eng.Now() == 1 {
			m.Global.Module(m.Global.ModuleOf(pb.Word)).FaultBusy(1, 40)
		}
	}
	for _, tc := range []struct {
		name    string
		ops     func(a uint64) []*isa.Op
		between func(m *Machine)
	}{
		{"direct", func(a uint64) []*isa.Op {
			return []*isa.Op{isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: a}, 2, 1, 2, false)}
		}, nil},
		{"prefetched", prefetched, nil},
		{"prefetched behind a busy module", prefetched, busy},
		// An empty load consumes nothing, so it retires as its fill ends
		// even with the PFU's head word still on its way.
		{"empty", func(uint64) []*isa.Op {
			return []*isa.Op{isa.NewPrefetch(pb, 8, 1), isa.NewVectorLoad(pb, 0, 1, 2, true)}
		}, busy},
	} {
		naive := runWait(t, sim.ModeNaive, cfg, tc.ops, tc.between)
		fast := runWait(t, sim.ModeWakeCached, cfg, tc.ops, tc.between)
		if fast.retired != naive.retired {
			t.Errorf("%s: retired at %d, naive %d", tc.name, fast.retired, naive.retired)
		}
		p := parked(t, tc.name, fast, naive)
		switch tc.name {
		case "empty":
			if len(p) != 0 {
				t.Errorf("%s: CE 0 answered Never at cycles %v, want none", tc.name, p)
			}
		case "direct":
			// Both requests issue as the startup fill ends; the CE then
			// waits for the head reply.
			from := ce.VectorStartup + sim.Cycle(cfg.CE.MaxOutstanding)
			d := fast.delivered[0]
			if len(p) == 0 || p[0] != from || p[len(p)-1] != d || len(p) != int(d-from+1) {
				t.Errorf("%s: CE 0 answered Never at cycles %v, want %d..%d", tc.name, p, from, d)
			}
		default:
			// Every cycle the naive CE spins on the head slot, the
			// wake-cached one sleeps.
			if spins := naive.m.CE(0).PFU().SpinWaits; spins == 0 || int64(len(p)) != spins {
				t.Errorf("%s: CE 0 answered Never at %d cycles, naive spun %d", tc.name, len(p), spins)
			}
		}
		sameAccounting(t, tc.name, fast.m, naive.m)
	}
}

// TestLostPrefetchWordFaultsAtDeadline: a prefetched word whose request
// is dropped never arrives. The wake-cached engine parks the CE on it,
// the naive engine spins it, and both report the PFU's SpinBound fault by
// the same deadline with the same counters.
func TestLostPrefetchWordFaultsAtDeadline(t *testing.T) {
	var prints []string
	var spins []int64
	for _, mode := range []sim.EngineMode{sim.ModeNaive, sim.ModeWakeCached} {
		cfg := testConfig(1)
		cfg.EngineMode = mode
		m := MustNew(cfg)
		a := isa.Addr{Space: isa.Global, Word: 0}
		m.Dispatch(0, isa.NewSeq(isa.NewPrefetch(a, 8, 1), isa.NewVectorLoad(a, 8, 1, 2, true)))
		word4 := func(p *network.Packet) bool { return p.Tag < prefetch.TagSpan && p.Tag%prefetch.BufferWords == 4 }
		for !dropHead(m.Fwd, word4) {
			if m.Eng.Now() > 100 {
				t.Fatalf("%v: the fifth word's request was never dropped", mode)
			}
			m.Eng.Step()
		}
		_, err := m.Eng.RunUntil(func() bool { return false }, prefetch.SpinBound+100)
		if !errors.Is(err, sim.ErrDeadline) || !strings.Contains(err.Error(), "pfu0: consumer spun past") {
			t.Fatalf("%v: err = %v, want a deadline naming pfu0's spin fault", mode, err)
		}
		prints = append(prints, m.Registry().Fingerprint())
		spins = append(spins, m.CE(0).PFU().SpinWaits)
	}
	if prints[0] != prints[1] || spins[0] != spins[1] {
		t.Fatalf("SpinWaits %d naive, %d wake-cached, or registry fingerprints differ", spins[0], spins[1])
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
		r := runWait(t, mode, cfg, func(a uint64) []*isa.Op { return []*isa.Op{scalarLoad(a)} }, func(m *Machine) {
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
	return dropHead(rev, func(p *network.Packet) bool { return p.Dst == port && p.Tag >= ce.TagBase && p.Tag < ce.SyncTagBase })
}

// dropHead drops the first packet allow accepts from the head of a
// switch input queue of n, reporting whether it found one.
func dropHead(n *network.Network, allow func(*network.Packet) bool) bool {
	for s := 0; s < n.Stages(); s++ {
		for swi := 0; swi < n.Ports()/n.Radix(); swi++ {
			for in := 0; in < n.Radix(); in++ {
				if n.DropSwitchHead(s, swi, in, allow) != nil {
					return true
				}
			}
		}
	}
	return false
}
