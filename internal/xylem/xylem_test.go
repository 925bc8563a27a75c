package xylem

import "testing"

// TestFormattedVsUnformattedIO reproduces the BDNA optimization's
// mechanism: both costs are linear in the word count at their per-word
// rates, and formatted I/O is an order of magnitude more expensive than
// raw transfer.
func TestFormattedVsUnformattedIO(t *testing.T) {
	const n = 1_000_000
	f := IOCost(n, true)
	u := IOCost(n, false)
	if u != n*TransferPerWord || f != n*(TransferPerWord+FormatPerWord) {
		t.Fatalf("costs of %d words: formatted %d, raw %d, want %d and %d",
			n, f, u, n*(TransferPerWord+FormatPerWord), n*TransferPerWord)
	}
	if f < 10*u {
		t.Fatalf("formatted (%d) not >= 10x unformatted (%d)", f, u)
	}
	// BDNA scale check: the hand optimization saved ~41 s by removing
	// formatting; our model's formatted-minus-raw difference for a
	// BDNA-sized dataset (~25 M words) should be tens of seconds.
	diff := (IOCost(25_000_000, true) - IOCost(25_000_000, false)).Seconds()
	if diff < 20 || diff > 400 {
		t.Fatalf("BDNA-scale formatting overhead = %.0f s, want tens of seconds", diff)
	}
}
