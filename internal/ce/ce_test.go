package ce

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/gmem"
	"repro/internal/isa"
	"repro/internal/network"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// rig is a one-CE machine: networks, memory, cache, PFU.
type rig struct {
	eng *sim.Engine
	ce  *CE
	g   *gmem.Global
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.New()
	fwd := network.MustNew("forward", 64, 8, 0)
	rev := network.MustNew("reverse", 64, 8, 0)
	g, err := gmem.New(gmem.Config{Words: 4096, Modules: 32}, rev)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < g.Modules(); m++ {
		fwd.SetSink(m, g.Module(m))
	}
	ch := cache.New(cache.Config{Words: 1024, CEs: 1})
	u := prefetch.New(fwd, 0)
	u.SetRouter(g.ModuleOf)
	c := New(DefaultConfig(), 0, 0, 0, fwd, ch, u, g.ModuleOf)
	rev.SetSink(0, network.SinkFunc(func(p *network.Packet) bool { return c.Deliver(eng.Now(), p) }))
	for p := 1; p < 64; p++ {
		rev.SetSink(p, network.SinkFunc(func(*network.Packet) bool { return true }))
	}
	eng.Register("ce", c)
	eng.Register("pfu", u)
	eng.Register("fwd", fwd)
	for m := 0; m < g.Modules(); m++ {
		eng.Register("mod", g.Module(m))
	}
	eng.Register("rev", rev)
	return &rig{eng: eng, ce: c, g: g}
}

func (r *rig) runToIdle(t *testing.T) sim.Cycle {
	t.Helper()
	at, err := r.eng.RunUntil(r.ce.Idle, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func TestDefaultConfigValues(t *testing.T) {
	cfg := DefaultConfig()
	if VectorStartup != 12 || XferCycles != 5 || cfg.MaxOutstanding != 2 {
		t.Fatalf("defaults drifted: startup %d, transfer %d, %+v", VectorStartup, XferCycles, cfg)
	}
}

func TestIdleAndProgramLifecycle(t *testing.T) {
	r := newRig(t)
	if !r.ce.Idle() {
		t.Fatal("fresh CE not idle")
	}
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(10)))
	if r.ce.Idle() {
		t.Fatal("CE idle with a program")
	}
	r.runToIdle(t)
	if r.ce.OpsDone != 1 {
		t.Fatalf("OpsDone = %d", r.ce.OpsDone)
	}
	// Reusable after completion.
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(5)))
	r.runToIdle(t)
	if r.ce.OpsDone != 2 {
		t.Fatalf("OpsDone = %d after second program", r.ce.OpsDone)
	}
}

func TestSetProgramWhileBusyPanics(t *testing.T) {
	r := newRig(t)
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(100)))
	r.eng.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("SetProgram on a busy CE did not panic")
		}
	}()
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(1)))
}

func TestForceProgramBetweenOps(t *testing.T) {
	r := newRig(t)
	ran := false
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(5)))
	r.runToIdle(t)
	op := isa.NewCompute(1)
	op.Do = func() { ran = true }
	r.ce.ForceProgram(isa.NewSeq(op))
	r.runToIdle(t)
	if !ran {
		t.Fatal("forced program did not run")
	}
}

func TestForceProgramMidOpPanics(t *testing.T) {
	r := newRig(t)
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(100)))
	r.eng.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("ForceProgram with an op in flight did not panic")
		}
	}()
	r.ce.ForceProgram(isa.NewSeq(isa.NewCompute(1)))
}

// TestVectorFlopAccounting: a vector load with k chained flops per
// element over n elements credits exactly n*k flops.
func TestVectorFlopAccounting(t *testing.T) {
	r := newRig(t)
	r.ce.SetProgram(isa.NewSeq(
		isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, 48, 1, 3, false),
	))
	r.runToIdle(t)
	if r.ce.Flops != 48*3 {
		t.Fatalf("Flops = %d, want %d", r.ce.Flops, 48*3)
	}
}

// TestVectorStartupCost: a zero-length vector op still pays startup; a
// 32-element cluster-resident op takes about startup + 32 cycles.
func TestVectorStartupCost(t *testing.T) {
	r := newRig(t)
	var doneAt sim.Cycle
	warm := isa.NewVectorLoad(isa.Addr{Space: isa.Cluster, Word: 0}, 32, 1, 0, false)
	hot := isa.NewVectorLoad(isa.Addr{Space: isa.Cluster, Word: 0}, 32, 1, 1, false)
	var warmDone sim.Cycle
	warm.OnDone = func(int64, bool) { warmDone = r.eng.Now() }
	hot.OnDone = func(int64, bool) { doneAt = r.eng.Now() }
	r.ce.SetProgram(isa.NewSeq(warm, hot))
	r.runToIdle(t)
	elapsed := doneAt - warmDone
	// Startup 12 + ~32 consume + small pipeline slack.
	if elapsed < 44 || elapsed > 55 {
		t.Fatalf("warm 32-element vector op took %d cycles, want ~44-50", elapsed)
	}
}

// TestOutstandingLimitThroughput: the direct global stream rate is
// 2 words per (8 + 5) cycles.
func TestOutstandingLimitThroughput(t *testing.T) {
	r := newRig(t)
	const n = 130
	var start, end sim.Cycle
	first := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, 2, 1, 0, false)
	first.OnDone = func(int64, bool) { start = r.eng.Now() }
	main := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 2}, n, 1, 0, false)
	main.OnDone = func(int64, bool) { end = r.eng.Now() }
	r.ce.SetProgram(isa.NewSeq(first, main))
	r.runToIdle(t)
	perWord := float64(end-start) / float64(n)
	if perWord < 6.0 || perWord > 7.2 {
		t.Fatalf("direct global stream = %.2f cycles/word, want ~6.5 (2 per 13)", perWord)
	}
}

// TestPrefetchOpIsAutonomous: a Prefetch op completes immediately and the
// PFU works in the background while the CE computes.
func TestPrefetchOpIsAutonomous(t *testing.T) {
	r := newRig(t)
	var pfDone, computeDone sim.Cycle
	pf := isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: 0}, 64, 1)
	pf.OnDone = func(int64, bool) { pfDone = r.eng.Now() }
	comp := isa.NewCompute(100)
	comp.OnDone = func(int64, bool) { computeDone = r.eng.Now() }
	consume := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, 64, 1, 1, true)
	r.ce.SetProgram(isa.NewSeq(pf, comp, consume))
	at := r.runToIdle(t)
	if pfDone > 3 {
		t.Fatalf("prefetch op occupied the CE until %d", pfDone)
	}
	// The 64-word prefetch (≥64 cycles of issue+arrival) overlapped the
	// 100-cycle compute: total well under the serial sum.
	if at > computeDone+90 {
		t.Fatalf("no overlap: idle at %d, compute done %d", at, computeDone)
	}
}

// TestPostedWritesDoNotStall: a long global store stream completes at
// issue bandwidth, far faster than the round-trip-bound load stream.
func TestPostedWritesDoNotStall(t *testing.T) {
	r := newRig(t)
	const n = 64
	st := isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: 0}, n, 1, 0)
	r.ce.SetProgram(isa.NewSeq(st))
	at := r.runToIdle(t)
	if at > 4*n {
		t.Fatalf("posted store stream took %d cycles for %d words", at, n)
	}
	if r.ce.StallMem != 0 {
		t.Fatalf("stores stalled on memory %d cycles", r.ce.StallMem)
	}
}

// TestSyncRoundTrip: a sync op completes at arrival plus the CE-side
// cost, and its OnDone sees the memory value.
func TestSyncRoundTrip(t *testing.T) {
	r := newRig(t)
	r.g.StoreInt(7, 41)
	var got int64
	var gotOK bool
	op := isa.NewSync(7, network.FetchAndAdd(1))
	op.OnDone = func(v int64, ok bool) { got, gotOK = v, ok }
	r.ce.SetProgram(isa.NewSeq(op))
	at := r.runToIdle(t)
	if got != 41 || !gotOK {
		t.Fatalf("sync result %d/%v, want 41/true", got, gotOK)
	}
	if r.g.LoadInt(7) != 42 {
		t.Fatalf("memory = %d, want 42", r.g.LoadInt(7))
	}
	// 8-cycle round trip + SyncExtra + op boundaries.
	if at < 10 || at > 16 {
		t.Fatalf("sync completed at %d, want ~11-13", at)
	}
}

// TestScalarClusterRetryOnMSHRFull: scalar accesses retry through
// structural hazards rather than deadlocking.
func TestScalarClusterRetry(t *testing.T) {
	r := newRig(t)
	ops := make([]*isa.Op, 0, 12)
	for i := 0; i < 12; i++ {
		// Different lines, same small cache: forced misses.
		ops = append(ops, isa.NewScalarLoad(isa.Addr{Space: isa.Cluster, Word: uint64(i * 64)}))
	}
	r.ce.SetProgram(isa.NewSeq(ops...))
	r.runToIdle(t)
	if r.ce.OpsDone != 12 {
		t.Fatalf("OpsDone = %d, want 12", r.ce.OpsDone)
	}
}

func TestUnmatchedReplySwallowed(t *testing.T) {
	// A reply whose tag matches nothing — not the waiting read, not the
	// inflight queue, not the stale ring — used to panic. Under sustained
	// drop faults this is reachable (the tag outlived the ring), so it must
	// be swallowed and counted instead.
	r := newRig(t)
	if !r.ce.Deliver(0, &network.Packet{Tag: TagBase + 999, Kind: network.Reply}) {
		t.Fatal("unmatched reply not accepted")
	}
	if r.ce.StaleReplies != 1 || r.ce.LateReplies != 0 {
		t.Fatalf("StaleReplies=%d LateReplies=%d, want 1,0", r.ce.StaleReplies, r.ce.LateReplies)
	}
}

func TestStaleRingWrapCountsEvictedReplies(t *testing.T) {
	// Regression for the ring-wrap panic: reissue more reads than the
	// stale ring holds, then let every superseded original's reply land.
	// Tags still in the ring are LateReplies; the evicted overflow must be
	// swallowed as StaleReplies, not kill the run. Seeded shuffle so the
	// evicted and retained replies arrive interleaved.
	r := newRig(t)
	extra := 5
	n := staleTagCap + extra
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = TagBase + 1000 + uint64(i)
		r.ce.forgetTag(tags[i])
	}
	rng := sim.NewRand(0x5EDA2C3D)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		tags[i], tags[j] = tags[j], tags[i]
	}
	for _, tag := range tags {
		if !r.ce.Deliver(0, &network.Packet{Tag: tag, Kind: network.Reply}) {
			t.Fatalf("reply with tag %d not accepted", tag)
		}
	}
	if r.ce.LateReplies != int64(staleTagCap) || r.ce.StaleReplies != int64(extra) {
		t.Fatalf("LateReplies=%d StaleReplies=%d, want %d,%d",
			r.ce.LateReplies, r.ce.StaleReplies, staleTagCap, extra)
	}
	if len(r.ce.stale) != 0 {
		t.Fatalf("stale ring holds %d tags after all replies landed, want 0", len(r.ce.stale))
	}
}

// TestDeterministicInterleaving: two identical single-CE runs take the
// same cycle count and credit the same stalls.
func TestDeterministicInterleaving(t *testing.T) {
	run := func() (sim.Cycle, int64, int64) {
		r := newRig(t)
		r.ce.SetProgram(isa.NewSeq(
			isa.NewPrefetch(isa.Addr{Space: isa.Global, Word: 0}, 96, 1),
			isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, 96, 1, 2, true),
			isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: 512}, 32, 1, 0),
			isa.NewSync(7, network.TestAndSet()),
		))
		at := r.runToIdle(t)
		return at, r.ce.StallMem, r.ce.Flops
	}
	a1, s1, f1 := run()
	a2, s2, f2 := run()
	if a1 != a2 || s1 != s2 || f1 != f2 {
		t.Fatalf("nondeterminism: (%d,%d,%d) vs (%d,%d,%d)", a1, s1, f1, a2, s2, f2)
	}
}

// TestStoreStreamUnderCongestion: many CEs storing through one machine
// exercises the network-refusal retry path (StallNet) without losing any
// stores.
func TestStoreStreamUnderCongestion(t *testing.T) {
	eng := sim.New()
	fwd := network.MustNew("forward", 64, 8, 0)
	rev := network.MustNew("reverse", 64, 8, 0)
	g, err := gmem.New(gmem.Config{Words: 65536, Modules: 32}, rev)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < g.Modules(); m++ {
		fwd.SetSink(m, g.Module(m))
	}
	ch := cache.New(cache.Config{Words: 1024, CEs: 8})
	ces := make([]*CE, 8)
	for i := range ces {
		c := New(DefaultConfig(), i, i, i, fwd, ch, nil, g.ModuleOf)
		ces[i] = c
		rev.SetSink(i, network.SinkFunc(func(p *network.Packet) bool { return c.Deliver(eng.Now(), p) }))
		eng.Register("ce", c)
	}
	for p := 8; p < 64; p++ {
		rev.SetSink(p, network.SinkFunc(func(*network.Packet) bool { return true }))
	}
	eng.Register("fwd", fwd)
	for m := 0; m < g.Modules(); m++ {
		eng.Register("mod", g.Module(m))
	}
	eng.Register("rev", rev)

	// All 8 CEs store to module-aliasing addresses: severe contention.
	const n = 128
	for i, c := range ces {
		c.SetProgram(isa.NewSeq(
			isa.NewVectorStore(isa.Addr{Space: isa.Global, Word: uint64(i)}, n, 32, 0),
		))
	}
	idle := func() bool {
		for _, c := range ces {
			if !c.Idle() {
				return false
			}
		}
		return fwd.InFlight() == 0
	}
	if _, err := eng.RunUntil(idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	// Posted writes may still sit in module queues after the network
	// drains (weak ordering: no one waits for them); let them complete.
	eng.Run(200)
	var stalls, writes int64
	for _, c := range ces {
		stalls += c.StallNet
	}
	for m := 0; m < g.Modules(); m++ {
		writes += g.Module(m).Writes
	}
	if writes != 8*n {
		t.Fatalf("%d writes served, want %d", writes, 8*n)
	}
	if stalls == 0 {
		t.Fatal("no network stalls under aliased store contention")
	}
}

// newCfgRig is newRig with a caller-supplied CE config, for the
// request-recovery tests.
func newCfgRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.New()
	fwd := network.MustNew("forward", 64, 8, 0)
	rev := network.MustNew("reverse", 64, 8, 0)
	g, err := gmem.New(gmem.Config{Words: 4096, Modules: 32}, rev)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < g.Modules(); m++ {
		fwd.SetSink(m, g.Module(m))
	}
	ch := cache.New(cache.Config{Words: 1024, CEs: 1})
	u := prefetch.New(fwd, 0)
	u.SetRouter(g.ModuleOf)
	c := New(cfg, 0, 0, 0, fwd, ch, u, g.ModuleOf)
	rev.SetSink(0, network.SinkFunc(func(p *network.Packet) bool { return c.Deliver(eng.Now(), p) }))
	for p := 1; p < 64; p++ {
		rev.SetSink(p, network.SinkFunc(func(*network.Packet) bool { return true }))
	}
	eng.Register("ce", c)
	eng.Register("pfu", u)
	eng.Register("fwd", fwd)
	for m := 0; m < g.Modules(); m++ {
		eng.Register("mod", g.Module(m))
	}
	eng.Register("rev", rev)
	return &rig{eng: eng, ce: c, g: g}
}

// fwdOf digs the forward network back out of the rig for fault calls.
func (r *rig) fwdOf() *network.Network { return r.ce.fwd }

func retryCfg(timeout sim.Cycle, max int) Config {
	cfg := DefaultConfig()
	cfg.ReadTimeout = timeout
	cfg.MaxRetries = max
	return cfg
}

func TestScalarReadRetryRecoversDrop(t *testing.T) {
	r := newCfgRig(t, retryCfg(30, 3))
	r.g.StoreWord(9, 4242)
	var got int64
	op := isa.NewScalarLoad(isa.Addr{Space: isa.Global, Word: 9})
	op.OnDone = func(v int64, ok bool) { got = v }
	r.ce.SetProgram(isa.NewSeq(op))
	// The request offered at cycle 0 sits in stage-0 switch 0 input 0
	// after one executed cycle (port 0's shuffle wiring); drop it there.
	r.eng.Run(1)
	pk := r.fwdOf().DropSwitchHead(0, 0, 0, nil)
	if pk == nil || pk.Tag < TagBase {
		t.Fatalf("dropped %+v, want the CE's tagged read", pk)
	}
	r.runToIdle(t)
	if got != 4242 {
		t.Fatalf("scalar load returned %d after retry, want 4242", got)
	}
	if r.ce.Retries != 1 || r.ce.LateReplies != 0 || r.ce.RetriesExhausted != 0 {
		t.Fatalf("Retries=%d LateReplies=%d Exhausted=%d, want 1,0,0",
			r.ce.Retries, r.ce.LateReplies, r.ce.RetriesExhausted)
	}
	if reason := r.ce.FaultReason(); reason != "" {
		t.Fatalf("healthy CE reports fault %q", reason)
	}
}

func TestScalarLateReplySwallowed(t *testing.T) {
	// Delay (don't drop) the original request past the timeout: the retry
	// races it, and the superseded original's reply must land in the stale
	// ring instead of panicking as an unmatched tag.
	r := newCfgRig(t, retryCfg(30, 3))
	r.g.StoreWord(9, 777)
	r.fwdOf().StallEntry(0, 0, 60)
	var got int64
	op := isa.NewScalarLoad(isa.Addr{Space: isa.Global, Word: 9})
	op.OnDone = func(v int64, ok bool) { got = v }
	r.ce.SetProgram(isa.NewSeq(op))
	r.runToIdle(t)
	if got != 777 {
		t.Fatalf("scalar load returned %d, want 777", got)
	}
	if r.ce.Retries != 1 || r.ce.LateReplies != 1 {
		t.Fatalf("Retries=%d LateReplies=%d, want 1,1", r.ce.Retries, r.ce.LateReplies)
	}
}

func TestScalarRetriesExhaustedSurfacesErrDeadline(t *testing.T) {
	// Every issue and reissue is dropped: the CE must exhaust its retry
	// budget and the run must end in ErrDeadline naming the CE and the
	// pending word — no hang, no panic.
	r := newCfgRig(t, retryCfg(10, 2))
	op := isa.NewScalarLoad(isa.Addr{Space: isa.Global, Word: 9})
	r.ce.SetProgram(isa.NewSeq(op))
	for i := 0; i < 200; i++ {
		r.eng.Run(1)
		r.fwdOf().DropSwitchHead(0, 0, 0, nil)
	}
	if r.ce.RetriesExhausted != 1 || r.ce.Retries != 2 {
		t.Fatalf("RetriesExhausted=%d Retries=%d, want 1,2", r.ce.RetriesExhausted, r.ce.Retries)
	}
	_, err := r.eng.RunUntil(r.ce.Idle, 5000)
	if !errors.Is(err, sim.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	for _, want := range []string{"ce", "scalar read of word 0x9", "unanswered after 2 reissues"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadline error %q missing %q", err, want)
		}
	}
}

func TestVectorReadRetryRecoversDrop(t *testing.T) {
	// Drop a direct vector stream element's request: the inflight head's
	// per-entry deadline must reissue it under a fresh tag and the op
	// must complete with every element, charging the backoff window to
	// the recovery bucket.
	r := newCfgRig(t, retryCfg(30, 3))
	for w := uint64(0); w < 4; w++ {
		r.g.StoreWord(w, 100+w)
	}
	op := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 0}, 4, 1, 2, false)
	r.ce.SetProgram(isa.NewSeq(op))
	// Dispatch at cycle 0, vector startup 12: the first element issues at
	// cycle 12 and sits in stage-0 switch 0 input 0 after that executed
	// cycle (port 0's shuffle wiring); drop it there.
	r.eng.Run(13)
	pk := r.fwdOf().DropSwitchHead(0, 0, 0, nil)
	if pk == nil || pk.Tag < TagBase {
		t.Fatalf("dropped %+v, want the CE's first element read", pk)
	}
	r.runToIdle(t)
	r.eng.Settle()
	if r.ce.Flops != 4*2 {
		t.Fatalf("Flops = %d after recovery, want 8", r.ce.Flops)
	}
	if r.ce.Retries != 1 || r.ce.RetriesExhausted != 0 {
		t.Fatalf("Retries=%d Exhausted=%d, want 1,0", r.ce.Retries, r.ce.RetriesExhausted)
	}
	if got := r.ce.Acct.Cycles[isa.AcctRecovery]; got == 0 {
		t.Fatal("no cycles charged to recovery across a reissued vector head")
	}
	if reason := r.ce.FaultReason(); reason != "" {
		t.Fatalf("healthy CE reports fault %q", reason)
	}
}

func TestVectorReissuedThenAgedOutReplyIsStale(t *testing.T) {
	// The stale-ring <-> inflight-reissue interaction: a reply for a tag
	// that was reissued and then aged out of the ring must be swallowed
	// into StaleReplies — not resurrect the inflight entry, not panic.
	r := newCfgRig(t, retryCfg(30, 3))
	r.g.StoreWord(9, 777)
	r.fwdOf().StallEntry(0, 0, 60) // delay the original past the deadline
	var got int64
	op := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 9}, 1, 1, 0, false)
	op.OnDone = func(int64, bool) { got = int64(r.g.LoadWord(9)) }
	r.ce.SetProgram(isa.NewSeq(op))
	if _, err := r.eng.RunUntil(func() bool { return r.ce.Retries == 1 }, 10000); err != nil {
		t.Fatal(err)
	}
	// Age the reissued original's tag out of the ring before its delayed
	// reply lands: push a full ring's worth of newer forgotten tags.
	for i := 0; i < staleTagCap; i++ {
		r.ce.forgetTag(TagBase + 5000 + uint64(i))
	}
	r.runToIdle(t)
	if got != 777 {
		t.Fatalf("vector element read %d after recovery, want 777", got)
	}
	if r.ce.OpsDone != 1 || len(r.ce.inflight) != 0 {
		t.Fatalf("OpsDone=%d inflight=%d, want 1,0", r.ce.OpsDone, len(r.ce.inflight))
	}
	// The original's reply found neither the inflight queue (fresh tag)
	// nor the ring (aged out): stale, not late.
	if r.ce.StaleReplies != 1 || r.ce.LateReplies != 0 {
		t.Fatalf("StaleReplies=%d LateReplies=%d, want 1,0", r.ce.StaleReplies, r.ce.LateReplies)
	}
}

func TestVectorRetriesExhaustedSurfacesErrDeadline(t *testing.T) {
	// Every element issue and reissue is dropped: the head must exhaust
	// its budget and the run must end in ErrDeadline naming the CE and
	// the pending element — no hang, no panic.
	r := newCfgRig(t, retryCfg(10, 2))
	op := isa.NewVectorLoad(isa.Addr{Space: isa.Global, Word: 9}, 1, 1, 0, false)
	r.ce.SetProgram(isa.NewSeq(op))
	for i := 0; i < 200; i++ {
		r.eng.Run(1)
		r.fwdOf().DropSwitchHead(0, 0, 0, nil)
	}
	if r.ce.RetriesExhausted != 1 || r.ce.Retries != 2 {
		t.Fatalf("RetriesExhausted=%d Retries=%d, want 1,2", r.ce.RetriesExhausted, r.ce.Retries)
	}
	_, err := r.eng.RunUntil(r.ce.Idle, 5000)
	if !errors.Is(err, sim.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	for _, want := range []string{"ce", "vector element read of word 0x9", "unanswered after 2 reissues"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadline error %q missing %q", err, want)
		}
	}
}

func TestCheckStopDrainsThenSurrenders(t *testing.T) {
	r := newRig(t)
	var surrendered isa.Program
	r.ce.OnSurrender = func(p isa.Program) { surrendered = p }
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(50), isa.NewCompute(7)))
	r.eng.Run(5)
	r.ce.CheckStop(r.eng.Now())
	if !r.ce.CheckStopped() || r.ce.Idle() {
		t.Fatal("check-stopped CE should report CheckStopped and not Idle")
	}
	at, err := r.eng.RunUntil(func() bool { return surrendered != nil }, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// The op in flight drains before the halt takes effect.
	if at < 50 {
		t.Fatalf("surrendered at %d, before the in-flight compute drained (50)", at)
	}
	if r.ce.OpsDone != 1 || r.ce.Surrendered != 1 || r.ce.CheckStops != 1 {
		t.Fatalf("OpsDone=%d Surrendered=%d CheckStops=%d, want 1,1,1",
			r.ce.OpsDone, r.ce.Surrendered, r.ce.CheckStops)
	}
	r.ce.CheckStop(r.eng.Now()) // no-op on an already-stopped CE
	if r.ce.CheckStops != 1 {
		t.Fatalf("repeated CheckStop bumped the counter to %d", r.ce.CheckStops)
	}
	// After repair the CE is dispatchable and can finish the surrendered
	// remainder itself.
	r.ce.Repair(r.eng.Now())
	if !r.ce.Idle() {
		t.Fatal("repaired CE not idle")
	}
	r.ce.SetProgram(surrendered)
	r.runToIdle(t)
	if r.ce.OpsDone != 2 {
		t.Fatalf("OpsDone = %d after rerunning the surrendered program, want 2", r.ce.OpsDone)
	}
}

func TestCheckStopWithoutSurrenderFreezesUntilRepair(t *testing.T) {
	r := newRig(t)
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(10)))
	r.ce.CheckStop(r.eng.Now())
	r.eng.Run(100)
	if r.ce.OpsDone != 0 {
		t.Fatalf("frozen CE executed %d ops", r.ce.OpsDone)
	}
	r.ce.Repair(r.eng.Now())
	r.runToIdle(t)
	if r.ce.OpsDone != 1 || r.ce.FinishedAt < 110 {
		t.Fatalf("OpsDone=%d FinishedAt=%d, want 1 and >=110", r.ce.OpsDone, r.ce.FinishedAt)
	}
}

// TestAcctComputeClassification pins the accounting of the simplest
// program: one cycle of dispatch per op start, the compute span (retiring
// cycle included) as busy, one dispatch cycle to discover program end,
// idle for everything else — and the bucket totals conserve cycles.
func TestAcctComputeClassification(t *testing.T) {
	r := newRig(t)
	r.ce.SetProgram(isa.NewSeq(isa.NewCompute(10)))
	r.runToIdle(t)
	r.eng.Run(50)
	r.eng.Settle()
	a := r.ce.Acct
	if a.Total() != int64(r.eng.Now()) {
		t.Fatalf("bucket sum %d != elapsed %d (buckets %v)", a.Total(), r.eng.Now(), a.Cycles)
	}
	if a.Cycles[isa.AcctBusy] != 10 {
		t.Fatalf("busy = %d cycles for Compute(10), want 10", a.Cycles[isa.AcctBusy])
	}
	if a.Cycles[isa.AcctDispatch] != 2 {
		t.Fatalf("dispatch = %d, want 2 (op start + program-end discovery)", a.Cycles[isa.AcctDispatch])
	}
	if got := a.Cycles[isa.AcctIdle]; got != int64(r.eng.Now())-12 {
		t.Fatalf("idle = %d, want %d", got, int64(r.eng.Now())-12)
	}
}

// TestAcctParkMarkSplitsSkippedSpan: check-stopping and repairing a
// parked CE changes how its elided cycles must be classified, without
// ever ticking it. The park marks recorded by CheckStop/Repair split the
// deferred span so the frozen window lands in check_stop and the rest
// stays idle — the same split the naive engine produces tick by tick.
func TestAcctParkMarkSplitsSkippedSpan(t *testing.T) {
	r := newRig(t)
	r.eng.Run(10)
	r.ce.CheckStop(r.eng.Now())
	r.eng.Run(30) // frozen span [10,40): never ticked, engine skips it
	r.ce.Repair(r.eng.Now())
	r.eng.Run(20)
	r.eng.Settle()
	a := r.ce.Acct
	if a.Total() != 60 {
		t.Fatalf("bucket sum %d != elapsed 60 (buckets %v)", a.Total(), a.Cycles)
	}
	if got := a.Cycles[isa.AcctCheckStop]; got != 30 {
		t.Fatalf("check_stop = %d, want 30 (the frozen window)", got)
	}
	if got := a.Cycles[isa.AcctIdle]; got != 30 {
		t.Fatalf("idle = %d, want 30 (before the stop and after repair)", got)
	}
}
