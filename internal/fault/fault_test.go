package fault

import (
	"strings"
	"testing"

	"repro/internal/gmem"
	"repro/internal/network"
	"repro/internal/sim"
)

// stopCE is a StoppableCE recording the cycles it was stopped/repaired.
type stopCE struct {
	stopped  bool
	stops    int
	repairs  int
	eventLog []stopEvent
}

// stopEvent is one check-stop or repair of a stopCE.
type stopEvent struct {
	what string
	at   sim.Cycle
}

func (s *stopCE) CheckStop(now sim.Cycle) {
	if s.stopped {
		return
	}
	s.stopped = true
	s.stops++
	s.eventLog = append(s.eventLog, stopEvent{"stop", now})
}
func (s *stopCE) Repair(now sim.Cycle) {
	if !s.stopped {
		return
	}
	s.stopped = false
	s.repairs++
	s.eventLog = append(s.eventLog, stopEvent{"repair", now})
}
func (s *stopCE) CheckStopped() bool { return s.stopped }

// fakeIP is a FaultableIP recording the injected hooks.
type fakeIP struct {
	busies int64
	delays int64
}

func (f *fakeIP) FaultBusy(now, window sim.Cycle) { f.busies++ }
func (f *fakeIP) FaultDelayNext(extra sim.Cycle)  { f.delays++ }

// fakeCache is a FaultableCache recording injected bank-busy windows.
type fakeCache struct {
	busies int64
	banks  []int
}

func (f *fakeCache) FaultBankBusy(now sim.Cycle, bank int, window sim.Cycle) {
	f.busies++
	f.banks = append(f.banks, bank)
}
func (f *fakeCache) Banks() int { return 4 }

// fakeBus is a FaultableBus recording injected stall windows.
type fakeBus struct {
	stalls int64
}

func (f *fakeBus) FaultBusStall(now sim.Cycle, window sim.Cycle) { f.stalls++ }

type faultRig struct {
	eng    *sim.Engine
	inj    *Injector
	fwd    *network.Network
	rev    *network.Network
	g      *gmem.Global
	mods   []*gmem.Module
	ces    []*stopCE
	ips    []*fakeIP
	caches []*fakeCache
	buses  []*fakeBus
}

func newFaultRig(t *testing.T, cfg Config) *faultRig {
	t.Helper()
	eng := sim.New()
	fwd := network.MustNew("forward", 8, 8, 0)
	rev := network.MustNew("reverse", 8, 8, 0)
	g, err := gmem.New(gmem.Config{Words: 512, Modules: 8}, rev)
	if err != nil {
		t.Fatal(err)
	}
	var mods []*gmem.Module
	for m := 0; m < g.Modules(); m++ {
		fwd.SetSink(m, g.Module(m))
		mods = append(mods, g.Module(m))
	}
	for p := 0; p < 8; p++ {
		rev.SetSink(p, network.SinkFunc(func(*network.Packet) bool { return true }))
	}
	ces := []*stopCE{{}, {}, {}, {}}
	var stoppable []StoppableCE
	for _, c := range ces {
		stoppable = append(stoppable, c)
	}
	ips := []*fakeIP{{}, {}}
	var faultable []FaultableIP
	for _, ip := range ips {
		faultable = append(faultable, ip)
	}
	caches := []*fakeCache{{}, {}}
	var faultCaches []FaultableCache
	for _, c := range caches {
		faultCaches = append(faultCaches, c)
	}
	buses := []*fakeBus{{}, {}}
	var faultBuses []FaultableBus
	for _, b := range buses {
		faultBuses = append(faultBuses, b)
	}
	inj := NewInjector(cfg, fwd, rev, mods, stoppable, faultable, faultCaches, faultBuses)
	eng.Register("fault", inj) // injector first: its tick slot precedes all targets
	eng.Register("fwd", fwd)
	for _, m := range mods {
		eng.Register("mod", m)
	}
	eng.Register("rev", rev)
	return &faultRig{eng: eng, inj: inj, fwd: fwd, rev: rev, g: g, mods: mods,
		ces: ces, ips: ips, caches: caches, buses: buses}
}

func census(inj *Injector) [13]int64 {
	return [13]int64{inj.Injected, inj.NetStalls, inj.NetDrops, inj.MemBusies,
		inj.MemDegrades, inj.CheckStops, inj.IPBusies, inj.IPDelays,
		inj.CacheBusies, inj.BusStalls, inj.CEDrops,
		inj.Repairs, inj.NoTarget}
}

func TestScheduleIsSeedDeterministic(t *testing.T) {
	cfg := DefaultConfig(0xC3DA2)
	cfg.MeanInterval = 50
	a := newFaultRig(t, cfg)
	b := newFaultRig(t, cfg)
	a.eng.Run(20000)
	b.eng.Run(20000)
	if census(a.inj) != census(b.inj) {
		t.Fatalf("same seed diverged:\n  a=%v\n  b=%v", census(a.inj), census(b.inj))
	}
	if a.inj.Injected == 0 {
		t.Fatal("no faults injected over 20k cycles at mean interval 50")
	}
	cfg.Seed = 0x51DE
	c := newFaultRig(t, cfg)
	c.eng.Run(20000)
	if census(a.inj) == census(c.inj) {
		t.Fatal("different seeds produced an identical fault census")
	}
}

func TestAllEnabledKindsEventuallyFire(t *testing.T) {
	cfg := DefaultConfig(7)
	cfg.MeanInterval = 20
	r := newFaultRig(t, cfg)
	r.eng.Run(50000)
	if r.inj.NetStalls == 0 || r.inj.MemBusies == 0 || r.inj.MemDegrades == 0 ||
		r.inj.CheckStops == 0 || r.inj.IPBusies == 0 || r.inj.IPDelays == 0 ||
		r.inj.CacheBusies == 0 || r.inj.BusStalls == 0 {
		t.Fatalf("kinds missing from a long run: %+v", census(r.inj))
	}
	// Module-side effects landed.
	var busies, degrades int64
	for _, m := range r.mods {
		busies += m.BusyFaults
		degrades += m.DegradeFaults
	}
	if busies != r.inj.MemBusies || degrades != r.inj.MemDegrades {
		t.Fatalf("module counters (%d busy, %d degrade) disagree with injector (%d, %d)",
			busies, degrades, r.inj.MemBusies, r.inj.MemDegrades)
	}
	if r.fwd.FaultStalls+r.rev.FaultStalls != r.inj.NetStalls {
		t.Fatalf("network FaultStalls %d+%d, injector NetStalls %d",
			r.fwd.FaultStalls, r.rev.FaultStalls, r.inj.NetStalls)
	}
	// IP-side effects landed.
	var ipBusies, ipDelays int64
	for _, ip := range r.ips {
		ipBusies += ip.busies
		ipDelays += ip.delays
	}
	if ipBusies != r.inj.IPBusies || ipDelays != r.inj.IPDelays {
		t.Fatalf("IP counters (%d busy, %d delay) disagree with injector (%d, %d)",
			ipBusies, ipDelays, r.inj.IPBusies, r.inj.IPDelays)
	}
	// Cache- and bus-side effects landed.
	var cacheBusies, busStalls int64
	for _, c := range r.caches {
		cacheBusies += c.busies
		for _, b := range c.banks {
			if b < 0 || b >= 4 {
				t.Fatalf("bank index %d outside the cache's 4 banks", b)
			}
		}
	}
	for _, b := range r.buses {
		busStalls += b.stalls
	}
	if cacheBusies != r.inj.CacheBusies || busStalls != r.inj.BusStalls {
		t.Fatalf("cache/bus counters (%d busy, %d stall) disagree with injector (%d, %d)",
			cacheBusies, busStalls, r.inj.CacheBusies, r.inj.BusStalls)
	}
	// Idle networks carry nothing droppable: every drop is a no-target.
	if r.inj.NetDrops != 0 {
		t.Fatalf("dropped %d packets from an idle network", r.inj.NetDrops)
	}
	if r.inj.CEDrops != 0 {
		t.Fatalf("dropped %d CE packets from an idle network", r.inj.CEDrops)
	}
}

// TestCheckStopsAreRepairedAfterWindow: with check-stops among the
// kinds (here beside the I/O and cluster-internal kinds, leaving out the
// network and memory ones), every stopped CE is repaired exactly
// RepairWindow later, stops and repairs alternate per CE, and the census
// balances.
func TestCheckStopsAreRepairedAfterWindow(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.MeanInterval = 100
	cfg.Kinds = []Kind{CheckStop, IPBusy, IPDelay, CacheBankBusy, BusStall, CEDrop}
	r := newFaultRig(t, cfg)
	r.eng.Run(30000)
	if r.inj.CheckStops == 0 {
		t.Fatal("no check-stops over 30k cycles")
	}
	var stops, repairs int
	for _, c := range r.ces {
		stops += c.stops
		repairs += c.repairs
		for i, ev := range c.eventLog {
			want := "stop"
			if i%2 == 1 {
				want = "repair"
			}
			if ev.what != want {
				t.Fatalf("CE event log not alternating stop/repair: %v", c.eventLog)
			}
			if i%2 == 1 && ev.at != c.eventLog[i-1].at+RepairWindow {
				t.Fatalf("CE stopped at %d repaired at %d, want %d cycles later", c.eventLog[i-1].at, ev.at, RepairWindow)
			}
		}
	}
	if int64(stops) != r.inj.CheckStops {
		t.Fatalf("CE stops %d, injector CheckStops %d", stops, r.inj.CheckStops)
	}
	// Every stop whose window elapsed was repaired; at most the tail stop
	// can still be down.
	if repairs == 0 || int64(repairs) != r.inj.Repairs || stops-repairs > len(r.ces) {
		t.Fatalf("stops=%d repairs=%d (injector Repairs=%d)", stops, repairs, r.inj.Repairs)
	}
}

func TestInjectorAllowsFastForwardBetweenFaults(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.MeanInterval = 1000
	r := newFaultRig(t, cfg)
	// With everything else idle the engine should skip straight to the
	// injector's scheduled cycles rather than ticking 100k times.
	r.eng.Run(100000)
	if r.inj.Injected+r.inj.NoTarget < 30 {
		t.Fatalf("only %d faults scheduled over 100k cycles at mean interval 1000",
			r.inj.Injected+r.inj.NoTarget)
	}
}

func TestDroppablePredicate(t *testing.T) {
	cases := []struct {
		p    network.Packet
		want bool
	}{
		{network.Packet{Kind: network.Read, Tag: 5}, true},
		{network.Packet{Kind: network.Reply, Tag: 511}, true},
		{network.Packet{Kind: network.Read, Tag: 1 << 20}, false}, // CE direct read
		{network.Packet{Kind: network.Sync, Tag: 5}, false},
		{network.Packet{Kind: network.Write, Tag: 5}, false},
	}
	for i, c := range cases {
		if got := Droppable(&c.p); got != c.want {
			t.Fatalf("case %d: Droppable(%v tag %d) = %v, want %v", i, c.p.Kind, c.p.Tag, got, c.want)
		}
	}
}

func TestDroppableCEPredicate(t *testing.T) {
	cases := []struct {
		p    network.Packet
		want bool
	}{
		{network.Packet{Kind: network.Read, Tag: 1<<20 + 1}, true},   // CE direct read
		{network.Packet{Kind: network.Reply, Tag: 1<<20 + 7}, true},  // CE direct reply
		{network.Packet{Kind: network.Read, Tag: 5}, false},          // prefetch tag
		{network.Packet{Kind: network.Reply, Tag: 511}, false},       // prefetch tag
		{network.Packet{Kind: network.Reply, Tag: 1<<28 + 1}, false}, // sync reply: never droppable
		{network.Packet{Kind: network.Sync, Tag: 1<<28 + 1}, false},
		{network.Packet{Kind: network.Write, Tag: 1<<20 + 1}, false},
	}
	for i, c := range cases {
		if got := DroppableCE(&c.p); got != c.want {
			t.Fatalf("case %d: DroppableCE(%v tag %d) = %v, want %v", i, c.p.Kind, c.p.Tag, got, c.want)
		}
	}
}

func TestEnableOnly(t *testing.T) {
	cfg := DefaultConfig(1)
	if err := cfg.EnableOnly([]string{"ce-drop", "bus-stall"}); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Kinds; len(got) != 2 || got[0] != BusStall || got[1] != CEDrop {
		t.Fatalf("EnableOnly kept kinds %v, want [bus-stall ce-drop]", got)
	}
	cfg = DefaultConfig(1)
	if err := cfg.EnableOnly([]string{"net-stall", "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error does not name the unknown kind: %v", err)
	}
	if len(cfg.Kinds) != len(KindNames()) {
		t.Fatal("failed EnableOnly modified the config")
	}
	if err := cfg.EnableOnly(nil); err == nil {
		t.Fatal("empty kind list accepted")
	}
}

func TestKindNamesCoverEveryKind(t *testing.T) {
	names := KindNames()
	if len(names) != int(numKinds) {
		t.Fatalf("KindNames has %d entries for %d kinds", len(names), numKinds)
	}
	for i, n := range names {
		if n == "unknown" {
			t.Fatalf("kind %d has no mnemonic", i)
		}
	}
}

func TestDisabledConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewInjector with MeanInterval 0 did not panic")
		}
	}()
	NewInjector(DefaultConfig(1), nil, nil, nil, nil, nil, nil, nil)
}

func TestSummaryTableRenders(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.MeanInterval = 40
	r := newFaultRig(t, cfg)
	r.eng.Run(5000)
	var sb strings.Builder
	if err := r.inj.SummaryTable().Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"net-stall", "check-stop", "seed 0x9"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("summary table missing %q:\n%s", want, sb.String())
		}
	}
}
