package gmem

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/sim"
)

// rig is a miniature Cedar memory path: forward network, global memory,
// reverse network, with test sources attached to reverse output ports.
type rig struct {
	eng  *sim.Engine
	fwd  *network.Network
	rev  *network.Network
	g    *Global
	got  [][]*network.Packet // per reverse port, delivered replies
	gotC []sim.Cycle         // delivery cycle of last reply per port
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.New()
	fwd := network.MustNew("forward", 64, 8, 0)
	rev := network.MustNew("reverse", 64, 8, 0)
	g, err := New(cfg, rev)
	if err != nil {
		t.Fatalf("gmem.New: %v", err)
	}
	r := &rig{eng: eng, fwd: fwd, rev: rev, g: g,
		got: make([][]*network.Packet, 64), gotC: make([]sim.Cycle, 64)}
	for m := 0; m < g.Modules(); m++ {
		fwd.SetSink(m, g.Module(m))
	}
	for p := 0; p < 64; p++ {
		port := p
		rev.SetSink(port, network.SinkFunc(func(pk *network.Packet) bool {
			r.got[port] = append(r.got[port], pk)
			r.gotC[port] = eng.Now()
			return true
		}))
	}
	// Registration order mirrors the machine: forward net, memory
	// modules, reverse net.
	eng.Register("fwd", fwd)
	for m := 0; m < g.Modules(); m++ {
		eng.Register("mod", g.Module(m))
	}
	eng.Register("rev", rev)
	return r
}

func smallCfg() Config {
	return Config{Words: 4096, Modules: 32, ServiceCycles: 2, QueueWords: 4}
}

func TestDefaultConfig(t *testing.T) {
	d := Default()
	if d.Words != 8<<20 {
		t.Fatalf("default Words = %d, want 8M (64 MB)", d.Words)
	}
	if d.Modules != 32 || d.ServiceCycles != 2 {
		t.Fatalf("default modules/service = %d/%d", d.Modules, d.ServiceCycles)
	}
}

func TestNewValidation(t *testing.T) {
	rev := network.MustNew("r", 64, 8, 0)
	if _, err := New(Config{Words: 0, Modules: 4}, rev); err == nil {
		t.Fatal("accepted zero words")
	}
	if _, err := New(Config{Words: 16, Modules: 0}, rev); err == nil {
		t.Fatal("accepted zero modules")
	}
}

func TestInterleaving(t *testing.T) {
	r := newRig(t, smallCfg())
	if err := quick.Check(func(aRaw uint16) bool {
		a := uint64(aRaw) % 4096
		return r.g.ModuleOf(a) == int(a%32)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypedAccessors(t *testing.T) {
	r := newRig(t, smallCfg())
	r.g.StoreFloat(7, 3.25)
	if got := r.g.LoadFloat(7); got != 3.25 {
		t.Fatalf("LoadFloat = %g, want 3.25", got)
	}
	r.g.StoreInt(8, -42)
	if got := r.g.LoadInt(8); got != -42 {
		t.Fatalf("LoadInt = %d, want -42", got)
	}
	if r.g.Words() != 4096 || r.g.Modules() != 32 {
		t.Fatalf("size accessors wrong: %d words, %d modules", r.g.Words(), r.g.Modules())
	}
	if r.g.Config().Modules != 32 {
		t.Fatal("Config() not preserved")
	}
}

// TestReadRoundTripLatency pins the unloaded global-memory latency to the
// paper's 8 cycles (3 forward transit + 2 service + 3 reverse transit).
func TestReadRoundTripLatency(t *testing.T) {
	r := newRig(t, smallCfg())
	r.g.StoreFloat(5, 1.5)
	src := 3
	p := &network.Packet{Dst: r.g.ModuleOf(5), Src: src, Words: 1, Kind: network.Read, Addr: 5, Tag: 77}
	issue := r.eng.Now()
	if !r.fwd.Offer(issue, src, p) {
		t.Fatal("injection refused")
	}
	if _, err := r.eng.RunUntil(func() bool { return len(r.got[src]) == 1 }, 100); err != nil {
		t.Fatal(err)
	}
	reply := r.got[src][0]
	if reply.Kind != network.Reply || reply.Tag != 77 {
		t.Fatalf("bad reply: %+v", reply)
	}
	if v := reply.Value; v != r.g.LoadWord(5) {
		t.Fatalf("reply value %d != memory %d", v, r.g.LoadWord(5))
	}
	if lat := r.gotC[src] - issue; lat != 8 {
		t.Fatalf("unloaded round trip = %d cycles, want 8 (paper's minimal latency)", lat)
	}
}

func TestWriteIsPosted(t *testing.T) {
	r := newRig(t, smallCfg())
	p := &network.Packet{Dst: r.g.ModuleOf(33), Src: 2, Words: 2, Kind: network.Write, Addr: 33, Value: 999}
	if !r.fwd.Offer(r.eng.Now(), 2, p) {
		t.Fatal("injection refused")
	}
	r.eng.Run(40)
	if got := r.g.LoadWord(33); got != 999 {
		t.Fatalf("memory word = %d after posted write, want 999", got)
	}
	for port := range r.got {
		if len(r.got[port]) != 0 {
			t.Fatalf("posted write generated a reply at port %d", port)
		}
	}
	if r.g.Module(r.g.ModuleOf(33)).Writes != 1 {
		t.Fatal("write not counted")
	}
}

// TestFetchAndAddLinearizable: concurrent fetch-and-adds to one word must
// return distinct prior values and leave the sum — the property Cedar's
// loop self-scheduling depends on.
func TestFetchAndAddLinearizable(t *testing.T) {
	r := newRig(t, smallCfg())
	const n = 24
	addr := uint64(9)
	mod := r.g.ModuleOf(addr)
	for src := 0; src < n; src++ {
		p := &network.Packet{Dst: mod, Src: src, Words: 2, Kind: network.Sync,
			Addr: addr, Sync: network.FetchAndAdd(1)}
		for !r.fwd.Offer(r.eng.Now(), src, p) {
			r.eng.Step()
		}
	}
	done := func() bool {
		tot := 0
		for src := 0; src < n; src++ {
			tot += len(r.got[src])
		}
		return tot == n
	}
	if _, err := r.eng.RunUntil(done, 5000); err != nil {
		t.Fatal(err)
	}
	if got := r.g.LoadInt(addr); got != n {
		t.Fatalf("counter = %d after %d fetch-and-adds, want %d", got, n, n)
	}
	var olds []int
	for src := 0; src < n; src++ {
		for _, pk := range r.got[src] {
			if !pk.OK {
				t.Fatal("unconditional fetch-and-add reported failure")
			}
			olds = append(olds, int(int64(pk.Value)))
		}
	}
	sort.Ints(olds)
	for i, v := range olds {
		if v != i {
			t.Fatalf("prior values %v are not a permutation of 0..%d", olds, n-1)
		}
	}
}

// TestTestAndSetMutualExclusion: of N simultaneous Test-And-Sets exactly
// one succeeds.
func TestTestAndSetMutualExclusion(t *testing.T) {
	r := newRig(t, smallCfg())
	const n = 16
	addr := uint64(40)
	mod := r.g.ModuleOf(addr)
	for src := 0; src < n; src++ {
		p := &network.Packet{Dst: mod, Src: src, Words: 2, Kind: network.Sync,
			Addr: addr, Sync: network.TestAndSet()}
		for !r.fwd.Offer(r.eng.Now(), src, p) {
			r.eng.Step()
		}
	}
	done := func() bool {
		tot := 0
		for src := 0; src < n; src++ {
			tot += len(r.got[src])
		}
		return tot == n
	}
	if _, err := r.eng.RunUntil(done, 5000); err != nil {
		t.Fatal(err)
	}
	winners := 0
	for src := 0; src < n; src++ {
		for _, pk := range r.got[src] {
			if pk.OK {
				winners++
			}
		}
	}
	if winners != 1 {
		t.Fatalf("%d Test-And-Set winners, want exactly 1", winners)
	}
	if r.g.LoadInt(addr) != 1 {
		t.Fatalf("lock word = %d, want 1", r.g.LoadInt(addr))
	}
}

// TestModuleThroughput: a single module services one request per
// ServiceCycles; requests spread across modules proceed in parallel. This
// is the mechanism behind the paper's contention results (Table 2).
func TestModuleThroughput(t *testing.T) {
	// Same module: 8 reads to addresses that all map to module 0.
	r := newRig(t, smallCfg())
	issue := r.eng.Now()
	for i := 0; i < 8; i++ {
		p := &network.Packet{Dst: 0, Src: 0, Words: 1, Kind: network.Read, Addr: uint64(i * 32), Tag: uint64(i)}
		for !r.fwd.Offer(r.eng.Now(), 0, p) {
			r.eng.Step()
		}
	}
	if _, err := r.eng.RunUntil(func() bool { return len(r.got[0]) == 8 }, 1000); err != nil {
		t.Fatal(err)
	}
	same := r.gotC[0] - issue

	// Different modules from different sources: near-parallel.
	r2 := newRig(t, smallCfg())
	issue2 := r2.eng.Now()
	for i := 0; i < 8; i++ {
		p := &network.Packet{Dst: i, Src: i, Words: 1, Kind: network.Read, Addr: uint64(i), Tag: uint64(i)}
		if !r2.fwd.Offer(r2.eng.Now(), i, p) {
			t.Fatal("injection refused")
		}
	}
	done := func() bool {
		for i := 0; i < 8; i++ {
			if len(r2.got[i]) != 1 {
				return false
			}
		}
		return true
	}
	if _, err := r2.eng.RunUntil(done, 1000); err != nil {
		t.Fatal(err)
	}
	var spread sim.Cycle
	for i := 0; i < 8; i++ {
		if r2.gotC[i]-issue2 > spread {
			spread = r2.gotC[i] - issue2
		}
	}
	// Serialized: >= 8 requests x 2 cycles + pipeline. Parallel: ~8.
	if same < spread+8 {
		t.Fatalf("module conflict (%d cycles) not clearly slower than spread access (%d cycles)", same, spread)
	}
	if m := r.g.Module(0); m.Served != 8 || m.Reads != 8 {
		t.Fatalf("module 0 counters: served=%d reads=%d", m.Served, m.Reads)
	}
}

func TestModuleQueueBackpressure(t *testing.T) {
	r := newRig(t, smallCfg())
	m := r.g.Module(0)
	// Fill: module accepts QueueWords=4 words beyond the one in service.
	accepted := 0
	for i := 0; i < 10; i++ {
		p := &network.Packet{Dst: 0, Src: 0, Words: 1, Kind: network.Read, Addr: 0}
		if m.Offer(p) {
			accepted++
		}
	}
	if accepted != 4 {
		t.Fatalf("module accepted %d one-word requests with a 4-word queue, want 4", accepted)
	}
	if m.QueueLen() != 4 {
		t.Fatalf("QueueLen = %d, want 4", m.QueueLen())
	}
}

func TestWrongModulePanics(t *testing.T) {
	r := newRig(t, smallCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("module accepted a misrouted address")
		}
	}()
	r.g.Module(0).Offer(&network.Packet{Dst: 0, Src: 0, Words: 1, Kind: network.Read, Addr: 1})
}

func TestConditionalSyncFailureLeavesMemory(t *testing.T) {
	r := newRig(t, smallCfg())
	addr := uint64(64) // module 0
	r.g.StoreInt(addr, 5)
	p := &network.Packet{Dst: 0, Src: 1, Words: 2, Kind: network.Sync, Addr: addr,
		Sync: network.SyncSpec{Test: network.TestLT, TestOperand: 3, Op: network.OpAdd, Operand: 100}}
	if !r.fwd.Offer(r.eng.Now(), 1, p) {
		t.Fatal("injection refused")
	}
	if _, err := r.eng.RunUntil(func() bool { return len(r.got[1]) == 1 }, 100); err != nil {
		t.Fatal(err)
	}
	reply := r.got[1][0]
	if reply.OK {
		t.Fatal("test 5 < 3 reported success")
	}
	if int64(reply.Value) != 5 {
		t.Fatalf("failed sync reply value = %d, want prior value 5", int64(reply.Value))
	}
	if r.g.LoadInt(addr) != 5 {
		t.Fatalf("failed sync modified memory: %d", r.g.LoadInt(addr))
	}
}

// faultTrip measures the cycle at which one direct read against module 0
// is answered, after applying prep to the module.
func faultTrip(t *testing.T, prep func(m *Module)) sim.Cycle {
	t.Helper()
	r := newRig(t, smallCfg())
	m := r.g.Module(0)
	if prep != nil {
		prep(m)
	}
	src := 3
	p := &network.Packet{Dst: 0, Src: src, Words: 1, Kind: network.Read, Addr: 0, Tag: 1}
	if !m.Offer(p) {
		t.Fatal("module refused request")
	}
	at, err := r.eng.RunUntil(func() bool { return len(r.got[src]) == 1 }, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func TestFaultBusyWindowDelaysService(t *testing.T) {
	base := faultTrip(t, nil)
	got := faultTrip(t, func(m *Module) { m.FaultBusy(0, 10) })
	if got != base+10 {
		t.Fatalf("busy-windowed reply at %d, want base %d + 10", got, base)
	}
	// The window never shrinks: a shorter overlapping window is absorbed.
	got = faultTrip(t, func(m *Module) { m.FaultBusy(0, 10); m.FaultBusy(0, 4) })
	if got != base+10 {
		t.Fatalf("overlapping busy windows reply at %d, want base %d + 10", got, base)
	}
}

func TestFaultDegradeServesAtPenalty(t *testing.T) {
	base := faultTrip(t, nil)
	var mod *Module
	got := faultTrip(t, func(m *Module) { mod = m; m.FaultDegrade(0, 100, 3) })
	if got != base+3 {
		t.Fatalf("degraded reply at %d, want base %d + 3", got, base)
	}
	if mod.DegradedServes != 1 || mod.DegradeFaults != 1 {
		t.Fatalf("DegradedServes = %d, DegradeFaults = %d, want 1, 1", mod.DegradedServes, mod.DegradeFaults)
	}
	// Outside the window the module serves at full speed again.
	got = faultTrip(t, func(m *Module) { mod = m; m.FaultDegrade(0, 0, 3) })
	if got != base || mod.DegradedServes != 0 {
		t.Fatalf("post-window reply at %d (DegradedServes %d), want base %d at full speed", got, mod.DegradedServes, base)
	}
}

func TestFaultBusyModuleStaysFastForwardable(t *testing.T) {
	// A busy window on a queued module must be reported to the engine so
	// the wake-cached path fast-forwards to the window's end rather than
	// polling (or worse, parking) — NextEvent returns busyUntil exactly.
	r := newRig(t, smallCfg())
	m := r.g.Module(0)
	m.FaultBusy(0, 50)
	if !m.Offer(&network.Packet{Dst: 0, Src: 1, Words: 1, Kind: network.Read, Addr: 0, Tag: 1}) {
		t.Fatal("module refused request")
	}
	if ne := m.NextEvent(0); ne != 50 {
		t.Fatalf("NextEvent = %d with queued request under busy window, want 50", ne)
	}
}

// TestPagedStore: a new memory reads zero at every word, a store
// allocates only the page it lands in, two memories never share a word,
// and a load or store at or beyond Words panics, also where the last
// page would hold the address.
func TestPagedStore(t *testing.T) {
	cfg := Config{Words: 2*pageWords + 5, Modules: 8}
	rev := network.MustNew("r", 8, 8, 0)
	g, err := New(cfg, rev)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(cfg, rev)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.pages) != 3 {
		t.Fatalf("%d pages for %d words, want 3", len(g.pages), cfg.Words)
	}
	for a := uint64(0); a < uint64(cfg.Words); a++ {
		if v := g.LoadWord(a); v != 0 {
			t.Fatalf("word %d = %d in a new memory, want 0", a, v)
		}
	}
	if touched := materialized(g); touched != 0 {
		t.Fatalf("loads materialized %d pages, want 0", touched)
	}

	last := uint64(cfg.Words - 1)
	g.StoreWord(7, 1)
	g.StoreInt(pageWords-1, -2)
	g.StoreFloat(last, 3.5)
	if touched := materialized(g); touched != 2 || g.pages[1] != nil {
		t.Fatalf("stores to pages 0 and 2 materialized %d pages (page 1 %p), want 2", touched, g.pages[1])
	}
	if g.LoadWord(7) != 1 || g.LoadInt(pageWords-1) != -2 || g.LoadFloat(last) != 3.5 || g.LoadWord(8) != 0 {
		t.Fatalf("read back %d %d %v %d, want 1 -2 3.5 0",
			g.LoadWord(7), g.LoadInt(pageWords-1), g.LoadFloat(last), g.LoadWord(8))
	}
	for _, a := range []uint64{7, pageWords - 1, last} {
		if v := h.LoadWord(a); v != 0 {
			t.Fatalf("word %d = %d in the other memory, want 0", a, v)
		}
	}
	h.StoreWord(7, 9)
	if g.LoadWord(7) != 1 || h.LoadWord(7) != 9 {
		t.Fatalf("word 7 reads %d and %d, want 1 and 9: the memories share a page", g.LoadWord(7), h.LoadWord(7))
	}

	for name, access := range map[string]func(){
		"load at Words":       func() { g.LoadWord(uint64(cfg.Words)) },
		"store at Words":      func() { g.StoreWord(uint64(cfg.Words), 1) },
		"load past last page": func() { g.LoadWord(3 * pageWords) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			access()
		}()
	}
	if g.pages[2][5] != 0 {
		t.Fatal("an out-of-range store wrote into the last page")
	}
}

// TestReleasedStoreReusedZeroed: a memory built after earlier ones were
// written and dropped reads zero everywhere they wrote, also once the
// collector has reclaimed their pages for reuse, and writing it leaves
// the earlier memories' words as they were. A finished machine's store
// goes to the collector, never to the next machine.
func TestReleasedStoreReusedZeroed(t *testing.T) {
	cfg := Config{Words: 4096, Modules: 8}
	rev := network.MustNew("r", 8, 8, 0)
	addrs := []uint64{0, 7, 1000, 4095}
	var prev *Global
	for round := 0; round < 4; round++ {
		g, err := New(cfg, rev)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range addrs {
			if v := g.LoadWord(a); v != 0 {
				t.Fatalf("round %d: word %d = %d in a new memory, want 0", round, a, v)
			}
		}
		r := int64(round)
		g.StoreWord(addrs[0], uint64(r+1))
		g.StoreInt(addrs[1], -r-2)
		g.StoreFloat(addrs[2], float64(r)+3.5)
		g.StoreWord(addrs[3], uint64(r+4))
		if prev != nil {
			p := r - 1
			if prev.LoadWord(addrs[0]) != uint64(p+1) || prev.LoadInt(addrs[1]) != -p-2 ||
				prev.LoadFloat(addrs[2]) != float64(p)+3.5 || prev.LoadWord(addrs[3]) != uint64(p+4) {
				t.Fatalf("round %d: the previous memory reads %d %d %v %d, want %d %d %v %d: the memories share a page",
					round, prev.LoadWord(addrs[0]), prev.LoadInt(addrs[1]), prev.LoadFloat(addrs[2]), prev.LoadWord(addrs[3]),
					p+1, -p-2, float64(p)+3.5, p+4)
			}
		}
		prev = g
		runtime.GC()
	}
}

// TestReleasedStoreConcurrent: memories built and dropped from several
// goroutines at once (a job server's workers) never share a store and
// always start zeroed.
func TestReleasedStoreConcurrent(t *testing.T) {
	cfg := Config{Words: 4096, Modules: 8}
	rev := network.MustNew("r", 8, 8, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g, err := New(cfg, rev)
				if err != nil {
					t.Error(err)
					return
				}
				for a := uint64(0); a < 64; a++ {
					if v := g.LoadWord(a); v != 0 {
						t.Errorf("worker %d: word %d = %d in a new memory, want 0", w, a, v)
						return
					}
					g.StoreWord(a, uint64(w+1))
				}
				for a := uint64(0); a < 64; a++ {
					if v := g.LoadWord(a); v != uint64(w+1) {
						t.Errorf("worker %d: word %d = %d, another memory shares the store", w, a, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// materialized counts g's allocated pages.
func materialized(g *Global) int {
	n := 0
	for _, pg := range g.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestCompleteRewritesRequestInPlace pins the in-place reply contract:
// a Read or Sync request comes back as the same packet, addressed to
// its issuer, carrying the datum, with the request's Tag, Addr and
// issue stamp kept and every other field zeroed. A posted write has no
// reply.
func TestCompleteRewritesRequestInPlace(t *testing.T) {
	r := newRig(t, smallCfg())
	m := r.g.Module(5)
	r.g.StoreInt(37, 41)
	for _, tc := range []struct {
		name string
		req  network.Packet
		want network.Packet
	}{
		{
			"read",
			network.Packet{Dst: 5, Src: 9, Words: 1, Kind: network.Read, Addr: 37, Value: 3,
				OK: true, Phantom: true, Tag: 1<<20 + 1, Born: 12, BornSet: true},
			network.Packet{Dst: 9, Src: 5, Words: 1, Kind: network.Reply, Addr: 37, Value: 41,
				Tag: 1<<20 + 1, Born: 12, BornSet: true},
		},
		{
			"sync",
			network.Packet{Dst: 5, Src: 4, Words: 2, Kind: network.Sync, Addr: 37,
				Sync: network.FetchAndAdd(2), Tag: 1<<28 + 3, Born: 0, BornSet: true},
			network.Packet{Dst: 4, Src: 5, Words: 1, Kind: network.Reply, Addr: 37, Value: 41,
				OK: true, Tag: 1<<28 + 3, Born: 0, BornSet: true},
		},
	} {
		p := new(network.Packet)
		*p = tc.req
		if got := m.complete(p); got != p {
			t.Fatalf("%s: complete returned %p, want the request %p", tc.name, got, p)
		}
		if *p != tc.want {
			t.Fatalf("%s: reply %+v, want %+v", tc.name, *p, tc.want)
		}
	}
	if v := r.g.LoadInt(37); v != 43 {
		t.Fatalf("fetch-and-add left %d, want 43", v)
	}
	w := &network.Packet{Dst: 5, Src: 9, Words: 2, Kind: network.Write, Addr: 37, Value: 7, Tag: 1}
	if got := m.complete(w); got != nil {
		t.Fatalf("write produced reply %+v", got)
	}
	if v := r.g.LoadInt(37); v != 7 {
		t.Fatalf("write left %d, want 7", v)
	}
}
