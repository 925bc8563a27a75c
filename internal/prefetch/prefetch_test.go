package prefetch

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gmem"
	"repro/internal/network"
	"repro/internal/sim"
)

// rig wires one PFU to a full memory path.
type rig struct {
	eng *sim.Engine
	fwd *network.Network
	rev *network.Network
	g   *gmem.Global
	u   *PFU
}

func newRig(t *testing.T) *rig {
	t.Helper()
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
	const port = 5
	u := New(fwd, port)
	u.SetRouter(g.ModuleOf)
	rev.SetSink(port, network.SinkFunc(func(p *network.Packet) bool {
		return u.Deliver(eng.Now(), p)
	}))
	// Other ports swallow anything (nothing should arrive there).
	for p := 0; p < 64; p++ {
		if p == port {
			continue
		}
		rev.SetSink(p, network.SinkFunc(func(*network.Packet) bool {
			t.Errorf("reply delivered to wrong port %d", p)
			return true
		}))
	}
	eng.Register("pfu", u)
	eng.Register("fwd", fwd)
	for m := 0; m < g.Modules(); m++ {
		eng.Register("mod", g.Module(m))
	}
	eng.Register("rev", rev)
	return &rig{eng: eng, fwd: fwd, rev: rev, g: g, u: u}
}

func TestPrefetchDeliversInRequestOrder(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 64; i++ {
		r.g.StoreWord(uint64(i), uint64(1000+i))
	}
	r.u.Arm(64, 1)
	r.u.Fire(0)
	var got []uint64
	if _, err := r.eng.RunUntil(func() bool {
		for r.u.Ready() {
			v, _ := r.u.Consume()
			got = append(got, v)
		}
		return r.u.Complete()
	}, 5000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 64 {
		t.Fatalf("consumed %d words, want 64", len(got))
	}
	for i, v := range got {
		if v != uint64(1000+i) {
			t.Fatalf("word %d = %d, want %d (request order violated)", i, v, 1000+i)
		}
	}
	if r.u.Issued != 64 || r.u.Prefetches != 1 {
		t.Fatalf("counters: issued=%d prefetches=%d", r.u.Issued, r.u.Prefetches)
	}
	if r.u.Active() {
		t.Fatal("PFU still active after completion")
	}
}

func TestStridedPrefetch(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 32; i++ {
		r.g.StoreWord(uint64(i*33), uint64(i))
	}
	r.u.Arm(32, 33) // stride 33: hits a different module each time
	r.u.Fire(0)
	var got []uint64
	if _, err := r.eng.RunUntil(func() bool {
		for r.u.Ready() {
			v, _ := r.u.Consume()
			got = append(got, v)
		}
		return r.u.Complete()
	}, 5000); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("strided word %d = %d, want %d", i, v, i)
		}
	}
}

// TestIssueRate: an unimpeded PFU issues one request per cycle — the
// property that lets prefetch mask the 13-cycle latency.
func TestIssueRate(t *testing.T) {
	r := newRig(t)
	var issues []sim.Cycle
	r.u.OnIssue = func(now sim.Cycle, seq int, addr uint64) { issues = append(issues, now) }
	r.u.Arm(16, 1)
	r.u.Fire(0)
	r.eng.Run(40)
	if len(issues) != 16 {
		t.Fatalf("issued %d, want 16", len(issues))
	}
	for i := 1; i < len(issues); i++ {
		if issues[i] != issues[i-1]+1 {
			t.Fatalf("issue gap at %d: %d -> %d (want 1/cycle)", i, issues[i-1], issues[i])
		}
	}
}

// TestFirstWordLatency: the first datum reaches the buffer 8 cycles after
// issue, matching the paper's minimal latency.
func TestFirstWordLatency(t *testing.T) {
	r := newRig(t)
	var issue0, arrive0 sim.Cycle = -1, -1
	r.u.OnIssue = func(now sim.Cycle, seq int, addr uint64) {
		if seq == 0 {
			issue0 = now
		}
	}
	r.u.OnArrive = func(now sim.Cycle, seq int) {
		if arrive0 < 0 {
			arrive0 = now
		}
	}
	r.u.Arm(1, 1)
	r.u.Fire(0)
	r.eng.Run(50)
	if issue0 < 0 || arrive0 < 0 {
		t.Fatal("prefetch did not run")
	}
	if got := arrive0 - issue0; got != 8 {
		t.Fatalf("first-word latency = %d cycles, want 8", got)
	}
}

// TestInterarrivalNearOne: with a single CE prefetching stride-1 there is
// no contention and words arrive about one per cycle (Table 2's minimal
// interarrival).
func TestInterarrivalNearOne(t *testing.T) {
	r := newRig(t)
	var arrivals []sim.Cycle
	r.u.OnArrive = func(now sim.Cycle, seq int) { arrivals = append(arrivals, now) }
	r.u.Arm(128, 1)
	r.u.Fire(0)
	if _, err := r.eng.RunUntil(func() bool { return !r.u.Active() }, 5000); err != nil {
		t.Fatal(err)
	}
	var sum sim.Cycle
	for i := 1; i < len(arrivals); i++ {
		sum += arrivals[i] - arrivals[i-1]
	}
	mean := float64(sum) / float64(len(arrivals)-1)
	if mean < 0.99 || mean > 1.3 {
		t.Fatalf("uncontended interarrival = %.2f cycles, want ~1", mean)
	}
}

func TestPageCrossingSuspends(t *testing.T) {
	// A 32-word prefetch fired 16 words below a page boundary crosses
	// once and must take PageCrossCycles longer than within one page.
	r := newRig(t)
	var issues []sim.Cycle
	r.u.OnIssue = func(now sim.Cycle, seq int, addr uint64) { issues = append(issues, now) }
	r.u.Arm(32, 1)
	r.u.Fire(PageWords - 16)
	r.eng.Run(100)
	if len(issues) != 32 {
		t.Fatalf("issued %d, want 32", len(issues))
	}
	gap := issues[16] - issues[15]
	if gap < PageCrossCycles {
		t.Fatalf("page-crossing gap = %d cycles, want >= %d", gap, PageCrossCycles)
	}
	if r.u.PageCrossings != 1 {
		t.Fatalf("PageCrossings = %d, want 1", r.u.PageCrossings)
	}
	// Fire starting mid-page: address 8, length 8 stays in page 0: no crossing.
	r.u.Arm(8, 1)
	r.u.Fire(8)
	r.eng.Run(50)
	if r.u.PageCrossings != 1 {
		t.Fatalf("in-page prefetch crossed: %d", r.u.PageCrossings)
	}
}

func TestFireInvalidatesBuffer(t *testing.T) {
	r := newRig(t)
	r.g.StoreWord(0, 111)
	r.g.StoreWord(100, 222)
	r.u.Arm(1, 1)
	r.u.Fire(0)
	if _, err := r.eng.RunUntil(func() bool { return r.u.Ready() }, 100); err != nil {
		t.Fatal(err)
	}
	// Re-fire without consuming: old datum must be gone.
	r.u.Arm(1, 1)
	r.u.Fire(100)
	if r.u.Ready() {
		t.Fatal("buffer not invalidated by Fire")
	}
	if _, err := r.eng.RunUntil(func() bool { return r.u.Ready() }, 100); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.u.Consume(); got != 222 {
		t.Fatalf("consumed %d after re-fire, want 222", got)
	}
}

func TestConsumeBeforeArrivalSpinWaits(t *testing.T) {
	// A Consume against a clear full/empty bit is the paper's memory-based
	// synchronization: the consumer spins (ok false, SpinWaits accrues)
	// instead of crashing, and resumes as soon as the datum lands.
	r := newRig(t)
	r.g.StoreWord(0, 77)
	r.u.Arm(4, 1)
	r.u.Fire(0)
	if v, ok := r.u.Consume(); ok {
		t.Fatalf("Consume before arrival returned %d, ok=true", v)
	}
	if r.u.SpinWaits != 1 {
		t.Fatalf("SpinWaits = %d after one failed Consume, want 1", r.u.SpinWaits)
	}
	if _, err := r.eng.RunUntil(func() bool { return r.u.Ready() }, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.u.Consume(); !ok || v != 77 {
		t.Fatalf("Consume after arrival = %d,%v, want 77,true", v, ok)
	}
}

func TestArmValidation(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Arm(-1) did not panic")
		}
	}()
	r.u.Arm(-1, 1)
}

func TestZeroLengthPrefetch(t *testing.T) {
	r := newRig(t)
	r.u.Arm(0, 1)
	r.u.Fire(0)
	if r.u.Active() {
		t.Fatal("zero-length prefetch active")
	}
	if !r.u.Complete() {
		t.Fatal("zero-length prefetch not complete")
	}
}

func TestZeroStrideBecomesOne(t *testing.T) {
	r := newRig(t)
	r.u.Arm(4, 0)
	r.u.Fire(0)
	if _, err := r.eng.RunUntil(func() bool { return !r.u.Active() }, 1000); err != nil {
		t.Fatal(err)
	}
}

// TestLongPrefetchBufferBound: a prefetch longer than the buffer cannot
// have more than BufferWords outstanding unconsumed words.
func TestLongPrefetchBufferBound(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 600; i++ {
		r.g.StoreWord(uint64(i), uint64(i))
	}
	r.u.Arm(600, 1)
	r.u.Fire(0)
	// Do not consume; the PFU must stop at 512 issued.
	r.eng.Run(2000)
	if r.u.Issued != BufferWords {
		t.Fatalf("issued %d without consumption, want %d", r.u.Issued, BufferWords)
	}
	// Now consume everything; the rest must flow.
	var got []uint64
	if _, err := r.eng.RunUntil(func() bool {
		for r.u.Ready() {
			v, _ := r.u.Consume()
			got = append(got, v)
		}
		return r.u.Complete()
	}, 20000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 600 {
		t.Fatalf("consumed %d, want 600", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("word %d = %d after wraparound, want %d", i, v, i)
		}
	}
}

func TestMaskedPrefetch(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 16; i++ {
		r.g.StoreWord(uint64(i), uint64(100+i))
	}
	// Fetch only even elements.
	mask := make([]bool, 16)
	for i := range mask {
		mask[i] = i%2 == 0
	}
	r.u.ArmMasked(16, 1, mask)
	r.u.Fire(0)
	var got []uint64
	if _, err := r.eng.RunUntil(func() bool {
		for r.u.Ready() {
			v, _ := r.u.Consume()
			got = append(got, v)
		}
		return r.u.Complete()
	}, 5000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("consumed %d, want 16", len(got))
	}
	for i, v := range got {
		want := uint64(0)
		if i%2 == 0 {
			want = uint64(100 + i)
		}
		if v != want {
			t.Fatalf("element %d = %d, want %d", i, v, want)
		}
	}
	// Only the unmasked half traveled the network.
	if r.u.Issued != 8 {
		t.Fatalf("issued %d requests, want 8", r.u.Issued)
	}
}

func TestMaskLengthMismatchPanics(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched mask accepted")
		}
	}()
	r.u.ArmMasked(8, 1, make([]bool, 4))
}

func TestAllMaskedPrefetchCompletes(t *testing.T) {
	r := newRig(t)
	r.u.ArmMasked(8, 1, make([]bool, 8)) // everything suppressed
	r.u.Fire(0)
	var n int
	if _, err := r.eng.RunUntil(func() bool {
		for r.u.Ready() {
			r.u.Consume()
			n++
		}
		return r.u.Complete()
	}, 1000); err != nil {
		t.Fatal(err)
	}
	if n != 8 || r.u.Issued != 0 {
		t.Fatalf("consumed %d (want 8), issued %d (want 0)", n, r.u.Issued)
	}
}

// dropSeq0 removes the request injected at cycle 0 from the forward
// network. After one executed cycle the packet sits in stage-0 switch 5
// input 0 (port 5's shuffle wiring: 5*8 = 40 -> switch 5, input 0).
func dropSeq0(t *testing.T, r *rig) *network.Packet {
	t.Helper()
	r.eng.Run(1)
	pk := r.fwd.DropSwitchHead(0, 5, 0, nil)
	if pk == nil {
		t.Fatal("no packet to drop in stage-0 switch 5")
	}
	return pk
}

func TestRetryRecoversDroppedRequest(t *testing.T) {
	r := newRig(t)
	r.u.SetTimeout(40, 4)
	for i := 0; i < 8; i++ {
		r.g.StoreWord(uint64(i), uint64(500+i))
	}
	r.u.Arm(8, 1)
	r.u.Fire(0)
	if pk := dropSeq0(t, r); pk.Tag != BufferWords {
		// Slot 0's first instance: epoch 1 over slot 0.
		t.Fatalf("dropped tag %d, want %d", pk.Tag, BufferWords)
	}
	var got []uint64
	if _, err := r.eng.RunUntil(func() bool {
		for r.u.Ready() {
			v, _ := r.u.Consume()
			got = append(got, v)
		}
		return r.u.Complete()
	}, 20000); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(500+i) {
			t.Fatalf("word %d = %d after retry, want %d (order broken)", i, v, 500+i)
		}
	}
	if r.u.Retries != 1 || r.fwd.Dropped != 1 || r.u.RetriesExhausted != 0 {
		t.Fatalf("Retries=%d Dropped=%d Exhausted=%d, want 1,1,0",
			r.u.Retries, r.fwd.Dropped, r.u.RetriesExhausted)
	}
	if reason := r.u.FaultReason(); reason != "" {
		t.Fatalf("healthy PFU reports fault %q", reason)
	}
}

func TestRetriesExhaustedSurfacesErrDeadline(t *testing.T) {
	// Every request and reissue is dropped: the PFU must give up after
	// maxRetries and the run must end in a diagnosable ErrDeadline naming
	// the component and the pending request — no hang, no panic.
	r := newRig(t)
	r.u.SetTimeout(20, 2)
	r.u.Arm(1, 1)
	r.u.Fire(0)
	for i := 0; i < 300; i++ {
		r.eng.Run(1)
		r.fwd.DropSwitchHead(0, 5, 0, nil)
	}
	if r.u.RetriesExhausted != 1 || r.u.Retries != 2 {
		t.Fatalf("RetriesExhausted=%d Retries=%d, want 1,2", r.u.RetriesExhausted, r.u.Retries)
	}
	_, err := r.eng.RunUntil(func() bool { return r.u.Complete() }, 5000)
	if !errors.Is(err, sim.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	for _, want := range []string{"pfu", "unanswered after 2 reissues", "word 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadline error %q missing %q", err, want)
		}
	}
}

func TestDuplicateReplySwallowed(t *testing.T) {
	// Stall the entry register past the timeout instead of dropping: the
	// original request survives, so the retry produces a duplicate reply
	// that must be swallowed, not fed to the next wrap's slot.
	r := newRig(t)
	r.u.SetTimeout(30, 4)
	r.g.StoreWord(0, 999)
	r.fwd.StallEntry(0, 5, 60)
	r.u.Arm(1, 1)
	r.u.Fire(0)
	var got []uint64
	if _, err := r.eng.RunUntil(func() bool {
		for r.u.Ready() {
			v, _ := r.u.Consume()
			got = append(got, v)
		}
		return r.u.Complete() && r.u.DuplicateReplies > 0
	}, 20000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 999 {
		t.Fatalf("consumed %v, want [999]", got)
	}
	if r.u.Retries < 1 || r.u.DuplicateReplies < 1 {
		t.Fatalf("Retries=%d DuplicateReplies=%d, want >=1 each", r.u.Retries, r.u.DuplicateReplies)
	}
}

func TestStaleReplyAcrossFireIsSwallowed(t *testing.T) {
	// A reply can outlive its request instance: the original answer of a
	// reissued read returning after its slot has moved on to the next
	// prefetch. It must be counted stale and swallowed — before the tag
	// epochs it was either accepted into the new prefetch's slot (data
	// poison) or refused, which wedged the reverse network's delivery
	// retry loop and deadlocked the whole machine under congestion.
	r := newRig(t)
	r.u.SetTimeout(40, 4)
	r.g.StoreWord(0, 111)
	r.g.StoreWord(1, 222)
	r.u.Arm(1, 1)
	r.u.Fire(0)
	dropSeq0(t, r) // the original (slot 0, epoch 1) vanishes; the reissue recovers
	var got []uint64
	drain := func() bool {
		for r.u.Ready() {
			v, _ := r.u.Consume()
			got = append(got, v)
		}
		return r.u.Complete()
	}
	if _, err := r.eng.RunUntil(drain, 20000); err != nil {
		t.Fatal(err)
	}
	r.u.Arm(1, 1)
	r.u.Fire(1)
	// Step until slot 0's next instance (epoch 2) is issued, but before
	// its reply is back: the window the old code could be poisoned in.
	for i := 0; i < 10 && r.u.Issued != 2; i++ {
		r.eng.Run(1)
	}
	if r.u.Issued != 2 {
		t.Fatalf("issued %d, want 2 (reissues count as Retries, not Issued)", r.u.Issued)
	}
	if r.u.Ready() {
		t.Fatal("second reply already delivered; the stale window was missed")
	}
	// The dropped original's answer finally limps home, carrying epoch 1.
	late := &network.Packet{Dst: 5, Src: 0, Words: 1, Kind: network.Reply, Addr: 0, Tag: BufferWords, Value: 111}
	if !r.u.Deliver(r.eng.Now(), late) {
		t.Fatal("stale reply refused: the reverse network would redeliver it forever")
	}
	if r.u.StaleReplies != 1 {
		t.Fatalf("StaleReplies = %d, want 1", r.u.StaleReplies)
	}
	// So is a reply for a slot beyond every block armed so far, which
	// the one-word unit holds no state for.
	beyond := &network.Packet{Dst: 5, Src: 0, Words: 1, Kind: network.Reply, Addr: 7, Tag: BufferWords + 7, Value: 777}
	if !r.u.Deliver(r.eng.Now(), beyond) || r.u.StaleReplies != 2 {
		t.Fatalf("a reply beyond the armed slots: StaleReplies = %d, want 2", r.u.StaleReplies)
	}
	if r.u.Ready() {
		t.Fatal("stale reply poisoned the second prefetch's slot")
	}
	if _, err := r.eng.RunUntil(drain, 20000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 111 || got[1] != 222 {
		t.Fatalf("consumed %v, want [111 222]", got)
	}
}

func TestSpinBoundDiagnosis(t *testing.T) {
	// Without retry machinery a lost request leaves the consumer spinning
	// on the full/empty bit forever; past SpinBound the PFU reports it.
	r := newRig(t)
	r.u.Arm(1, 1)
	r.u.Fire(0)
	dropSeq0(t, r)
	for i := int64(0); i < SpinBound+2; i++ {
		if _, ok := r.u.Consume(); ok {
			t.Fatal("Consume succeeded with the request dropped")
		}
	}
	reason := r.u.FaultReason()
	if !strings.Contains(reason, "spun past") || !strings.Contains(reason, "slot 0") {
		t.Fatalf("FaultReason = %q, want a bounded-spin diagnosis naming the slot", reason)
	}
	if r.u.SpinWaits != SpinBound+2 {
		t.Fatalf("SpinWaits = %d, want %d", r.u.SpinWaits, SpinBound+2)
	}
}

func TestTimeoutDisabledKeepsLegacyBehavior(t *testing.T) {
	// With SetTimeout unset, a drop leaves the PFU permanently incomplete
	// (no retries, no outstanding-queue bookkeeping) — the pre-fault
	// contract, which the no-fault machine must preserve bit for bit.
	r := newRig(t)
	r.u.Arm(4, 1)
	r.u.Fire(0)
	dropSeq0(t, r)
	r.eng.Run(5000)
	if r.u.Retries != 0 || r.u.Complete() {
		t.Fatalf("Retries=%d Complete=%v without timeouts, want 0,false", r.u.Retries, r.u.Complete())
	}
}
