package job

import "testing"

// TestResultString pins the one-line result summary cedarsim prints: it
// ends at the rate unless the run carried both probe metrics, and then
// appends the prefetch latency and interarrival.
func TestResultString(t *testing.T) {
	const line = "RK GM/pref     P=8        100 cycles     50.0 MFLOPS"
	r := Result{Workload: "RK GM/pref", CEs: 8, Cycles: 100, MFLOPS: 50}
	if got := r.String(); got != line {
		t.Fatalf("without probe:\n got %q\nwant %q", got, line)
	}
	lat, ia := 9.4, 1.1
	r.LatencyCycles = &lat
	if got := r.String(); got != line {
		t.Fatalf("latency without interarrival:\n got %q\nwant %q", got, line)
	}
	r.InterarrivalCycles = &ia
	if got, want := r.String(), line+"  lat=  9.4  ia=1.10"; got != want {
		t.Fatalf("with probe:\n got %q\nwant %q", got, want)
	}
}
