package xylem

import "testing"

// TestFormattedVsUnformattedIO reproduces the BDNA optimization's
// mechanism: formatted I/O is an order of magnitude more expensive than
// raw transfer.
func TestFormattedVsUnformattedIO(t *testing.T) {
	var fs FS
	const n = 1_000_000
	f := fs.FormattedIO(n)
	u := fs.UnformattedIO(n)
	if f < 10*u {
		t.Fatalf("formatted (%d) not >= 10x unformatted (%d)", f, u)
	}
	if fs.WordsFormatted != n || fs.WordsUnformatted != n {
		t.Fatal("I/O accounting wrong")
	}
	// BDNA scale check: the hand optimization saved ~41 s by removing
	// formatting; our model's formatted-minus-raw difference for a
	// BDNA-sized dataset (~25 M words) should be tens of seconds.
	diff := (fs.FormattedIO(25_000_000) - fs.UnformattedIO(25_000_000)).Seconds()
	if diff < 20 || diff > 400 {
		t.Fatalf("BDNA-scale formatting overhead = %.0f s, want tens of seconds", diff)
	}
}
