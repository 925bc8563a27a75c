package perfmon

import (
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/prefetch"
)

// TestHistogramSaturates is the regression test for the silent uint32
// wrap: a bin at the 32-bit hardware maximum must stay there and count
// the lost increments in Overflow instead of rolling over to zero.
func TestHistogramSaturates(t *testing.T) {
	h := NewHistogram(0, 9, 10)
	h.bins[0] = math.MaxUint32 - 1
	h.Add(0)
	if h.bins[0] != math.MaxUint32 || h.Overflow != 0 {
		t.Fatalf("bin=%d overflow=%d after reaching max, want %d/0", h.bins[0], h.Overflow, uint32(math.MaxUint32))
	}
	h.Add(0)
	if h.bins[0] != math.MaxUint32 {
		t.Fatalf("bin wrapped to %d", h.bins[0])
	}
	if h.Overflow != 1 {
		t.Fatalf("Overflow = %d, want 1", h.Overflow)
	}
	// The sample itself is still counted: n and sum keep accruing.
	if h.Count() != 2 {
		t.Fatalf("Count() = %d, want 2", h.Count())
	}
	if h.Mean() != 0 {
		t.Fatalf("Mean() = %g, want 0", h.Mean())
	}
}

// hookedPFU returns a PFU suitable for driving the probe hooks by hand
// (the network is never ticked, so it only needs to exist).
func hookedPFU() *prefetch.PFU {
	return prefetch.New(network.MustNew("f", 8, 8, 0), 0)
}

// TestPrefetchProbeOverlappingBlocks is the regression test for the
// per-block keying bugs: the old probe reset its issue stamp on seq == 0
// while the previous block's replies were still in flight, so a trailing
// arrival of block A was measured against block B's issue time.
func TestPrefetchProbeOverlappingBlocks(t *testing.T) {
	u := hookedPFU()
	p := AttachPrefetch(u)

	u.OnFire(0) // block A
	u.OnIssue(0, 0, 0)
	u.OnIssue(1, 1, 1)
	u.OnArrive(8, 0) // A's first word: latency 8

	u.OnFire(64) // block B fires with one A reply still outstanding
	u.OnIssue(9, 0, 64)
	u.OnArrive(10, 1) // A's trailing word: gap 10-8=2, NOT latency 10-9=1
	u.OnIssue(11, 1, 65)
	u.OnArrive(17, 0) // B's first word: latency 17-9=8
	u.OnArrive(19, 1) // B's trailing word: gap 2

	if p.Blocks() != 2 {
		t.Fatalf("Blocks() = %d, want 2", p.Blocks())
	}
	if got := p.MeanLatency(); got != 8 {
		t.Fatalf("MeanLatency() = %g, want 8 for both blocks (A's trailing arrival leaked into B?)", got)
	}
	if p.Samples() != 2 {
		t.Fatalf("Samples() = %d, want 2 gaps", p.Samples())
	}
	if got := p.MeanInterarrival(); got != 2 {
		t.Fatalf("MeanInterarrival() = %g, want 2", got)
	}
	if p.Spurious != 0 {
		t.Fatalf("Spurious = %d, want 0", p.Spurious)
	}

	// An arrival with every block complete is never attributed.
	u.OnArrive(30, 5)
	if p.Spurious != 1 {
		t.Fatalf("Spurious = %d after unattributable arrival, want 1", p.Spurious)
	}
	if p.Samples() != 2 || p.Blocks() != 2 {
		t.Fatal("spurious arrival contaminated the measurements")
	}
}

// TestPrefetchProbeInterleavedReplies forces replies from two pipelined
// blocks to interleave out of block order — B's first word (served by an
// unloaded module) overtakes A's trailing word (stuck behind a busy one).
// The retired oldest-block-first rule attributed B's overtaking reply to
// A, recording a bogus 4-cycle gap for A and an 11-cycle latency for B;
// per-request tags attribute each reply to the block that issued it.
func TestPrefetchProbeInterleavedReplies(t *testing.T) {
	u := hookedPFU()
	p := AttachPrefetch(u)

	u.OnFire(0) // block A
	u.OnIssue(0, 0, 0)
	u.OnIssue(1, 1, 1)
	u.OnArrive(8, 0) // A slot 0: latency 8

	u.OnFire(64) // block B fires with A's slot-1 reply still in flight
	u.OnIssue(9, 0, 64)
	u.OnArrive(12, 0) // B slot 0 overtakes A slot 1: latency 12-9=3
	u.OnArrive(20, 1) // A's trailing word finally lands: gap 20-8=12

	if p.Blocks() != 2 {
		t.Fatalf("Blocks() = %d, want 2", p.Blocks())
	}
	if got := p.MeanLatency(); got != (8+3)/2.0 {
		t.Fatalf("MeanLatency() = %g, want 5.5 (B's overtaking reply must start B's measurement, not extend A's)", got)
	}
	if p.Samples() != 1 {
		t.Fatalf("Samples() = %d, want 1 gap (within A only)", p.Samples())
	}
	if got := p.MeanInterarrival(); got != 12 {
		t.Fatalf("MeanInterarrival() = %g, want 12 (A slot 0 to A slot 1)", got)
	}
	if p.Spurious != 0 {
		t.Fatalf("Spurious = %d, want 0", p.Spurious)
	}
}
